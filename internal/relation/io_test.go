package relation

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"testing/quick"

	"tempagg/internal/interval"
	"tempagg/internal/tuple"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestRoundTripSmall(t *testing.T) {
	path := tempPath(t, "employed.rel")
	orig := Employed()
	if err := WriteFile(path, orig); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("round trip lost tuples: %d != %d", got.Len(), orig.Len())
	}
	for i := range orig.Tuples {
		if got.Tuples[i] != orig.Tuples[i] {
			t.Fatalf("tuple %d: %v != %v", i, got.Tuples[i], orig.Tuples[i])
		}
	}
}

func randomRelation(r *rand.Rand, n int) *Relation {
	rel := New("random")
	for i := 0; i < n; i++ {
		start := r.Int63n(1000)
		end := start + r.Int63n(1000)
		if r.Intn(10) == 0 {
			end = interval.Forever
		}
		rel.Append(tuple.MustNew("n", r.Int63n(100000), start, end))
	}
	return rel
}

func TestRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	prop := func() bool {
		rel := randomRelation(r, r.Intn(200))
		path := tempPath(t, "prop.rel")
		if err := WriteFile(path, rel); err != nil {
			return false
		}
		got, err := ReadFile(path)
		if err != nil {
			return false
		}
		if got.Len() != rel.Len() {
			return false
		}
		for i := range rel.Tuples {
			if got.Tuples[i] != rel.Tuples[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripMultiplePages(t *testing.T) {
	// Exceed one page (64 records) to exercise page boundaries, including a
	// partial final page.
	rel := New("big")
	for i := 0; i < RecordsPerPage*3+17; i++ {
		rel.Append(tuple.MustNew("t", int64(i), int64(i), int64(i+10)))
	}
	path := tempPath(t, "big.rel")
	if err := WriteFile(path, rel); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Len() != rel.Len() {
		t.Fatalf("got %d tuples, want %d", got.Len(), rel.Len())
	}
	for i := range rel.Tuples {
		if got.Tuples[i] != rel.Tuples[i] {
			t.Fatalf("tuple %d mismatch", i)
		}
	}
}

func TestSortedFlag(t *testing.T) {
	path := tempPath(t, "sorted.rel")
	rel := Employed()
	rel.SortByTime()
	if err := WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !s.Sorted() {
		t.Fatal("sorted flag not set for sorted relation")
	}

	path2 := tempPath(t, "unsorted.rel")
	if err := WriteFile(path2, Employed()); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path2, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Sorted() {
		t.Fatal("sorted flag set for unsorted relation")
	}
}

func TestScannerReset(t *testing.T) {
	path := tempPath(t, "reset.rel")
	if err := WriteFile(path, Employed()); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	count := func() int {
		n := 0
		for {
			_, ok, err := s.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return n
			}
			n++
		}
	}
	if n := count(); n != 4 {
		t.Fatalf("first pass read %d tuples", n)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 4 {
		t.Fatalf("second pass read %d tuples", n)
	}
	if s.Passes() != 2 {
		t.Fatalf("Passes() = %d, want 2", s.Passes())
	}
}

func TestRandomizedScanIsPermutation(t *testing.T) {
	rel := New("r")
	for i := 0; i < RecordsPerPage*4; i++ {
		rel.Append(tuple.MustNew("t", int64(i), int64(i), int64(i)))
	}
	path := tempPath(t, "rand.rel")
	if err := WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, ScanOptions{RandomizePages: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var values []int64
	for {
		tu, ok, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		values = append(values, tu.Value)
	}
	if len(values) != rel.Len() {
		t.Fatalf("randomized scan read %d tuples, want %d", len(values), rel.Len())
	}
	inOrder := sort.SliceIsSorted(values, func(i, j int) bool { return values[i] < values[j] })
	if inOrder {
		t.Fatal("randomized scan returned tuples in sorted order")
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for i, v := range values {
		if v != int64(i) {
			t.Fatalf("randomized scan is not a permutation: values[%d]=%d", i, v)
		}
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	path := tempPath(t, "bad.rel")
	if err := os.WriteFile(path, bytes.Repeat([]byte{'x'}, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, ScanOptions{}); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestOpenRejectsTruncatedFile(t *testing.T) {
	path := tempPath(t, "trunc.rel")
	rel := New("r")
	for i := 0; i < 10; i++ {
		rel.Append(tuple.MustNew("t", 1, 0, 1))
	}
	if err := WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-RecordSize], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, ScanOptions{}); err == nil {
		t.Fatal("expected error for truncated file")
	}
}

// TestOpenRejectsOverflowingCount: a count whose byte size overflows int64
// is a truncated file, not a relation of billions of tuples.
func TestOpenRejectsOverflowingCount(t *testing.T) {
	path := tempPath(t, "overflow.rel")
	hdr := header{version: formatVersion, count: 1 << 60}.encode()
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, ScanOptions{}); err == nil {
		t.Fatal("expected error for a count beyond the file")
	}
}

func TestOpenRejectsShortHeader(t *testing.T) {
	path := tempPath(t, "short.rel")
	if err := os.WriteFile(path, []byte("TAGG"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, ScanOptions{}); err == nil {
		t.Fatal("expected error for short header")
	}
}

func TestOpenRejectsUnknownVersion(t *testing.T) {
	path := tempPath(t, "ver.rel")
	h := header{version: 99, count: 0}
	if err := os.WriteFile(path, h.encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, ScanOptions{}); err == nil {
		t.Fatal("expected error for unknown version")
	}
}

func TestWriteRejectsOversizedTimestamp(t *testing.T) {
	rel := New("r")
	// Forever-1 is too big for the 4-byte on-disk format but is not ∞.
	rel.Tuples = append(rel.Tuples, tuple.MustNew("t", 0, 0, interval.Forever-1))
	if err := Write(&bytes.Buffer{}, rel); err == nil {
		t.Fatal("expected error for timestamp exceeding 4-byte format")
	}
}

func TestWriteRejectsOversizedValue(t *testing.T) {
	rel := New("r")
	rel.Tuples = append(rel.Tuples, tuple.MustNew("t", math.MaxInt64, 0, 1))
	if err := Write(&bytes.Buffer{}, rel); err == nil {
		t.Fatal("expected error for value exceeding 4-byte format")
	}
}

func TestForeverSurvivesRoundTrip(t *testing.T) {
	path := tempPath(t, "forever.rel")
	rel := FromTuples("r", []tuple.Tuple{tuple.MustNew("t", 1, 0, interval.Forever)})
	if err := WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuples[0].Valid.End != interval.Forever {
		t.Fatalf("∞ did not survive: %v", got.Tuples[0].Valid)
	}
}

func TestNegativeValueSurvivesRoundTrip(t *testing.T) {
	path := tempPath(t, "neg.rel")
	rel := FromTuples("r", []tuple.Tuple{tuple.MustNew("t", -12345, 3, 9)})
	if err := WriteFile(path, rel); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tuples[0].Value != -12345 {
		t.Fatalf("negative value did not survive: %d", got.Tuples[0].Value)
	}
}
