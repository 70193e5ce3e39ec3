package relation

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"tempagg/internal/tuple"
)

// WriteFile stores the relation at path in the paged binary format. The
// sorted flag is recorded in the header so later scans (and the query
// optimizer) can exploit it without re-checking.
func WriteFile(path string, r *Relation) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("relation: %w", err)
	}
	defer f.Close()
	if err := Write(f, r); err != nil {
		return err
	}
	return f.Close()
}

// Write streams the relation to w in the paged binary format.
func Write(w io.Writer, r *Relation) error {
	h := header{version: formatVersion, count: uint64(len(r.Tuples))}
	if r.IsSorted() {
		h.flags |= FlagSorted
	}
	if _, err := w.Write(h.encode()); err != nil {
		return fmt.Errorf("relation: write header: %w", err)
	}
	page := make([]byte, PageSize)
	inPage := 0
	for i, t := range r.Tuples {
		if err := encodeRecord(page[inPage*RecordSize:], t); err != nil {
			return fmt.Errorf("relation: tuple %d: %w", i, err)
		}
		inPage++
		if inPage == RecordsPerPage {
			if _, err := w.Write(page); err != nil {
				return fmt.Errorf("relation: write page: %w", err)
			}
			inPage = 0
		}
	}
	if inPage > 0 {
		if _, err := w.Write(page[:inPage*RecordSize]); err != nil {
			return fmt.Errorf("relation: write page: %w", err)
		}
	}
	return nil
}

// ScanOptions configures a Scanner.
type ScanOptions struct {
	// RandomizePages visits pages in a pseudo-random order instead of
	// sequentially. This implements the paper's future-work idea (§7) of
	// randomizing the relation's pages as they are read so a sorted relation
	// does not linearize the aggregation tree; within a page tuples are also
	// shuffled.
	RandomizePages bool
	// Seed drives the page permutation when RandomizePages is set.
	Seed int64
}

// Scanner reads a relation file one page at a time — the paper's "single
// segmented scan of the input relation" (§6). Tuma's algorithm performs two
// passes by calling Reset between them.
type Scanner struct {
	f        *os.File
	opts     ScanOptions
	hdr      header
	order    []int // page visit order
	pages    int
	pageIdx  int // index into order
	page     []byte
	inPage   int   // records decoded from current page
	pageRecs int   // records in current page
	perm     []int // record order within current page
	read     uint64
	passes   int
}

// Open opens path for scanning.
func Open(path string, opts ScanOptions) (*Scanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relation: %w", err)
	}
	s := &Scanner{f: f, opts: opts, page: make([]byte, PageSize)}
	if err := s.init(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func (s *Scanner) init() error {
	buf := make([]byte, HeaderSize)
	if _, err := io.ReadFull(s.f, buf); err != nil {
		return fmt.Errorf("relation: read header: %w", err)
	}
	h, err := decodeHeader(buf)
	if err != nil {
		return err
	}
	s.hdr = h
	s.pages = int((h.count + uint64(RecordsPerPage) - 1) / uint64(RecordsPerPage))
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("relation: stat: %w", err)
	}
	// Compared in records, so that a corrupt count cannot overflow the
	// byte arithmetic and pass.
	if h.count > uint64(fi.Size()-HeaderSize)/RecordSize {
		return fmt.Errorf("relation: truncated file: header promises %d tuples of %d bytes, file has %d bytes",
			h.count, RecordSize, fi.Size())
	}
	s.buildOrder()
	s.passes = 1
	return nil
}

func (s *Scanner) buildOrder() {
	s.order = make([]int, s.pages)
	for i := range s.order {
		s.order[i] = i
	}
	if s.opts.RandomizePages {
		r := rand.New(rand.NewSource(s.opts.Seed))
		r.Shuffle(len(s.order), func(i, j int) {
			s.order[i], s.order[j] = s.order[j], s.order[i]
		})
	}
	s.pageIdx = 0
	s.inPage = 0
	s.pageRecs = 0
	s.read = 0
}

// Count is the number of tuples the file holds.
func (s *Scanner) Count() int { return int(s.hdr.count) }

// Sorted reports the header's sorted flag.
func (s *Scanner) Sorted() bool { return s.hdr.flags&FlagSorted != 0 }

// Passes reports how many scans of the relation have been started — 1 for
// the single-scan algorithms, 2 for Tuma's two-pass baseline.
func (s *Scanner) Passes() int { return s.passes }

// Reset rewinds the scanner to the first tuple, starting another full pass.
func (s *Scanner) Reset() error {
	s.buildOrder()
	s.passes++
	return nil
}

// Next returns the next tuple. ok is false at the end of the relation.
func (s *Scanner) Next() (t tuple.Tuple, ok bool, err error) {
	if s.inPage >= s.pageRecs {
		if err := s.loadPage(); err != nil {
			if err == io.EOF {
				return tuple.Tuple{}, false, nil
			}
			return tuple.Tuple{}, false, err
		}
	}
	rec := s.inPage
	if s.perm != nil {
		rec = s.perm[s.inPage]
	}
	t, err = decodeRecord(s.page[rec*RecordSize:])
	if err != nil {
		return tuple.Tuple{}, false, fmt.Errorf("relation: record %d: %w", s.read, err)
	}
	s.inPage++
	s.read++
	return t, true, nil
}

func (s *Scanner) loadPage() error {
	if s.pageIdx >= len(s.order) {
		return io.EOF
	}
	pageNo := s.order[s.pageIdx]
	s.pageIdx++
	recs, err := s.readPage(pageNo)
	if err != nil {
		return err
	}
	s.pageRecs = recs
	s.inPage = 0
	if s.opts.RandomizePages {
		r := rand.New(rand.NewSource(s.opts.Seed ^ int64(pageNo+1)))
		s.perm = r.Perm(recs)
	}
	return nil
}

// readPage reads page pageNo into s.page and returns its record count.
func (s *Scanner) readPage(pageNo int) (int, error) {
	recs := RecordsPerPage
	if rem := int(s.hdr.count) - pageNo*RecordsPerPage; rem < recs {
		recs = rem
	}
	off := int64(HeaderSize) + int64(pageNo)*PageSize
	if _, err := s.f.ReadAt(s.page[:recs*RecordSize], off); err != nil {
		return 0, fmt.Errorf("relation: read page %d: %w", pageNo, err)
	}
	return recs, nil
}

// Close releases the underlying file.
func (s *Scanner) Close() error { return s.f.Close() }

// ReadFile loads an entire relation file into memory, in physical order.
func ReadFile(path string) (*Relation, error) {
	s, err := Open(path, ScanOptions{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	r := New(path)
	r.Tuples = make([]tuple.Tuple, 0, s.Count())
	for {
		t, ok, err := s.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		r.Append(t)
	}
	return r, nil
}
