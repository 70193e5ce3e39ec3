package relation

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

// On-disk layout.
//
// A relation file is a fixed header followed by fixed-width pages of
// 128-byte tuple records, reproducing the paper's physical tuple (§6):
//
//	name      6 bytes, NUL padded
//	value     4 bytes, big-endian int32   (the paper's Salary)
//	start     4 bytes, big-endian uint32
//	end       4 bytes, big-endian uint32  (0xFFFFFFFF encodes ∞)
//	payload 110 bytes, attributes not examined by the aggregate
//
// The header:
//
//	magic     4 bytes  "TAGG"
//	version   2 bytes  big-endian, currently 1
//	flags     2 bytes  bit 0: relation is totally ordered by time
//	count     8 bytes  number of tuple records
//	reserved 16 bytes  zero
const (
	// RecordSize is the paper's 128-byte tuple.
	RecordSize = 128
	// PageSize is the unit of the segmented scan; 64 records per page.
	PageSize = 8192
	// RecordsPerPage is how many tuples one page holds.
	RecordsPerPage = PageSize / RecordSize
	// HeaderSize is the fixed file-header length.
	HeaderSize = 32

	formatVersion = 1

	// FlagSorted marks a file whose tuples are totally ordered by time.
	FlagSorted = 1 << 0

	payloadLen    = RecordSize - tuple.NameLen - 4 - 4 - 4
	foreverOnDisk = math.MaxUint32
)

var magic = [4]byte{'T', 'A', 'G', 'G'}

// header is the decoded file header.
type header struct {
	version uint16
	flags   uint16
	count   uint64
}

func (h header) encode() []byte {
	buf := make([]byte, HeaderSize)
	copy(buf[0:4], magic[:])
	binary.BigEndian.PutUint16(buf[4:6], h.version)
	binary.BigEndian.PutUint16(buf[6:8], h.flags)
	binary.BigEndian.PutUint64(buf[8:16], h.count)
	return buf
}

func decodeHeader(buf []byte) (header, error) {
	if len(buf) < HeaderSize {
		return header{}, fmt.Errorf("relation: short header: %d bytes", len(buf))
	}
	if !bytes.Equal(buf[0:4], magic[:]) {
		return header{}, fmt.Errorf("relation: bad magic %q", buf[0:4])
	}
	h := header{
		version: binary.BigEndian.Uint16(buf[4:6]),
		flags:   binary.BigEndian.Uint16(buf[6:8]),
		count:   binary.BigEndian.Uint64(buf[8:16]),
	}
	if h.version != formatVersion {
		return header{}, fmt.Errorf("relation: unsupported format version %d", h.version)
	}
	return h, nil
}

// encodeTime narrows an in-memory chronon to the 4-byte on-disk timestamp.
func encodeTime(t interval.Time) (uint32, error) {
	if t == interval.Forever {
		return foreverOnDisk, nil
	}
	if t < 0 || t >= foreverOnDisk {
		return 0, fmt.Errorf("relation: timestamp %d does not fit the 4-byte on-disk format", t)
	}
	return uint32(t), nil
}

// decodeTime widens a 4-byte on-disk timestamp.
func decodeTime(u uint32) interval.Time {
	if u == foreverOnDisk {
		return interval.Forever
	}
	return interval.Time(u)
}

// encodeRecord writes t into the 128-byte record at buf.
func encodeRecord(buf []byte, t tuple.Tuple) error {
	if len(buf) < RecordSize {
		return fmt.Errorf("relation: record buffer too small")
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Value < math.MinInt32 || t.Value > math.MaxInt32 {
		return fmt.Errorf("relation: value %d does not fit the 4-byte on-disk format", t.Value)
	}
	start, err := encodeTime(t.Valid.Start)
	if err != nil {
		return err
	}
	end, err := encodeTime(t.Valid.End)
	if err != nil {
		return err
	}
	for i := 0; i < tuple.NameLen; i++ {
		buf[i] = 0
	}
	copy(buf[0:tuple.NameLen], t.Name)
	off := tuple.NameLen
	binary.BigEndian.PutUint32(buf[off:off+4], uint32(int32(t.Value)))
	binary.BigEndian.PutUint32(buf[off+4:off+8], start)
	binary.BigEndian.PutUint32(buf[off+8:off+12], end)
	for i := off + 12; i < RecordSize; i++ {
		buf[i] = 0
	}
	return nil
}

// decodeRecord parses one 128-byte record.
func decodeRecord(buf []byte) (tuple.Tuple, error) {
	if len(buf) < RecordSize {
		return tuple.Tuple{}, fmt.Errorf("relation: short record: %d bytes", len(buf))
	}
	name, value, start, end := recordFields(buf)
	return tuple.New(string(name), value, decodeTime(start), decodeTime(end))
}

// recordFields splits a full 128-byte record into its raw fields: the name
// up to its NUL padding, the sign-extended value, and the two on-disk
// timestamps. It checks nothing; every caller validates the fields through
// tuple.New.
func recordFields(buf []byte) (name []byte, value int64, start, end uint32) {
	name = buf[0:tuple.NameLen]
	if i := bytes.IndexByte(name, 0); i >= 0 {
		name = name[:i]
	}
	off := tuple.NameLen
	value = int64(int32(binary.BigEndian.Uint32(buf[off : off+4])))
	start = binary.BigEndian.Uint32(buf[off+4 : off+8])
	end = binary.BigEndian.Uint32(buf[off+8 : off+12])
	return name, value, start, end
}
