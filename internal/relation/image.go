package relation

import (
	"fmt"
	"slices"
	"unsafe"

	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

// ImageBytesPerTuple is what one tuple costs in an Image's columns: a
// 4-byte value, two 4-byte timestamps and a 4-byte name code. The name
// dictionary comes on top (see Image.Bytes).
const ImageBytesPerTuple = 4 + 4 + 4 + 4

// Image is a relation file decoded once into compact columns, for a
// process that answers many queries over the same file. Timestamps keep
// their 4-byte on-disk form, so ∞ is still 0xFFFFFFFF; names are codes
// into a dictionary that holds each distinct name once. Row i of every
// column is the file's i-th tuple, in physical order, and every row passed
// the checks Scanner.Next applies, so an image reads back exactly the
// tuples a scan of its file returns. An Image is immutable and safe for
// concurrent readers.
type Image struct {
	names  []string
	code   []uint32
	value  []int32
	start  []uint32
	end    []uint32
	sorted bool
}

// LoadImage decodes the relation file at path into an Image, one page at
// a time. It fails where a Scanner over the file fails: on a bad header, a
// truncated file, or a record with an invalid interval.
func LoadImage(path string) (*Image, error) {
	s, err := Open(path, ScanOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	n := s.Count()
	img := &Image{
		code:   make([]uint32, n),
		value:  make([]int32, n),
		start:  make([]uint32, n),
		end:    make([]uint32, n),
		sorted: s.Sorted(),
	}
	dict := map[string]uint32{}
	for p, i := 0, 0; p < s.pages; p++ {
		recs, err := s.readPage(p)
		if err != nil {
			return nil, err
		}
		for r := 0; r < recs; r++ {
			name, value, start, end := recordFields(s.page[r*RecordSize:])
			code, ok := dict[string(name)]
			if !ok {
				code = uint32(len(img.names))
				img.names = append(img.names, string(name))
				dict[img.names[code]] = code
			}
			// The same validation decodeRecord applies, without its
			// per-tuple string: the name is the interned one.
			if _, err := tuple.New(img.names[code], value, decodeTime(start), decodeTime(end)); err != nil {
				return nil, fmt.Errorf("relation: record %d: %w", i, err)
			}
			img.code[i], img.value[i], img.start[i], img.end[i] = code, int32(value), start, end
			i++
		}
	}
	img.names = slices.Clip(img.names)
	return img, nil
}

// Len is the number of tuples.
func (m *Image) Len() int { return len(m.code) }

// Sorted reports the file header's sorted flag.
func (m *Image) Sorted() bool { return m.sorted }

// Bytes is the image's resident size: its columns plus its dictionary's
// strings and their headers.
func (m *Image) Bytes() int64 {
	b := int64(len(m.code)) * ImageBytesPerTuple
	for _, s := range m.names {
		b += int64(len(s)) + int64(unsafe.Sizeof(s))
	}
	return b
}

// Overlaps reports whether tuple i's valid time overlaps w, read off the
// time columns without building the tuple.
func (m *Image) Overlaps(i int, w interval.Interval) bool {
	return decodeTime(m.start[i]) <= w.End && w.Start <= decodeTime(m.end[i])
}

// Tuple returns tuple i. The error is the validating constructor's; rows
// were validated when the image was loaded, so it does not occur.
func (m *Image) Tuple(i int) (tuple.Tuple, error) {
	return tuple.New(m.names[m.code[i]], int64(m.value[i]), decodeTime(m.start[i]), decodeTime(m.end[i]))
}

// Tuples materializes the image as a tuple slice, in physical order.
func (m *Image) Tuples() ([]tuple.Tuple, error) {
	ts := make([]tuple.Tuple, m.Len())
	for i := range ts {
		t, err := m.Tuple(i)
		if err != nil {
			return nil, err
		}
		ts[i] = t
	}
	return ts, nil
}
