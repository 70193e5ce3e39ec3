package relation

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

// imageFileSeeds are relation files in the shapes the image must agree
// with a scan on: valid pages, ∞ ends, NUL-padded and full-width names,
// invalid intervals, truncation, and broken headers.
func imageFileSeeds(t testing.TB) [][]byte {
	var buf bytes.Buffer
	rel := FromTuples("seed", []tuple.Tuple{
		tuple.MustNew("Rich", 40, 18, interval.Forever),
		tuple.MustNew("Karen", 45, 8, 20),
		tuple.MustNew("Nathan", -35, 7, 12),
		tuple.MustNew("", 0, 0, 0),
		tuple.MustNew("Rich", 41, interval.Forever, interval.Forever),
	})
	if err := Write(&buf, rel); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	invalid := bytes.Clone(valid)
	// Record 1 with start 30 after end 20.
	binary.BigEndian.PutUint32(invalid[HeaderSize+RecordSize+tuple.NameLen+4:], 30)
	embeddedNUL := bytes.Clone(valid)
	copy(embeddedNUL[HeaderSize:], "a\x00b")
	badMagic := bytes.Clone(valid)
	badMagic[0] = 'X'
	badVersion := bytes.Clone(valid)
	badVersion[5] = 9

	buf.Reset()
	big := New("big")
	for i := 0; i < RecordsPerPage+3; i++ {
		big.Append(tuple.MustNew("p", int64(i), int64(i), int64(2*i)))
	}
	if err := Write(&buf, big); err != nil {
		t.Fatal(err)
	}
	return [][]byte{
		valid, invalid, embeddedNUL, badMagic, badVersion,
		valid[:len(valid)-1], valid[:HeaderSize], valid[:HeaderSize-1], nil,
		buf.Bytes(),
	}
}

// FuzzImageVsScanner: on any file bytes, LoadImage yields exactly the
// tuples a Scanner reads, in the same order, or fails where the scan fails.
func FuzzImageVsScanner(f *testing.F) {
	for _, seed := range imageFileSeeds(f) {
		f.Add(seed)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "fuzz.rel")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, scanErr := ReadFile(path)
		img, imgErr := LoadImage(path)
		if (scanErr == nil) != (imgErr == nil) {
			t.Fatalf("scan error %v, image error %v", scanErr, imgErr)
		}
		if scanErr != nil {
			return
		}
		if img.Len() != want.Len() {
			t.Fatalf("image has %d tuples, scan read %d", img.Len(), want.Len())
		}
		for i, tu := range want.Tuples {
			got, err := img.Tuple(i)
			if err != nil {
				t.Fatal(err)
			}
			if got != tu {
				t.Fatalf("tuple %d: image %v, scan %v", i, got, tu)
			}
			if w := interval.At(tu.Valid.Start); !img.Overlaps(i, w) {
				t.Fatalf("tuple %d: image says %v does not overlap its own start", i, tu)
			}
		}
		sc, err := Open(path, ScanOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		if img.Sorted() != sc.Sorted() {
			t.Fatalf("image sorted flag %v, header %v", img.Sorted(), sc.Sorted())
		}
	})
}

// TestImageBytes: the columns cost ImageBytesPerTuple per tuple, and each
// distinct name is held once.
func TestImageBytes(t *testing.T) {
	path := tempPath(t, "employed.rel")
	if err := WriteFile(path, Employed()); err != nil {
		t.Fatal(err)
	}
	img, err := LoadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rich, Karen, Nathan: 15 name bytes and three string headers.
	want := int64(4*ImageBytesPerTuple + 15 + 3*unsafe.Sizeof(""))
	if got := img.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}
