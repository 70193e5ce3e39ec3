package query

import (
	"sort"

	"tempagg/internal/core"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/tuple"
)

// ExecuteImage executes a query over a decoded relation image
// (relation.LoadImage). Its rows and plan are those ExecuteFile gives for
// the image's file. info may be nil; the image then supplies the
// optimizer's metadata, as the file header would.
func ExecuteImage(q *Query, img *relation.Image, info *RelationInfo) (*QueryResult, error) {
	return ExecuteImageTraced(q, func() (*relation.Image, error) { return img, nil }, info, nil)
}

// ExecuteImageTraced is ExecuteImage with per-query observability, over an
// image that load returns. The pass calls load at most once, when it first
// reads a tuple, so a plan that reads none — EXPLAIN, or a lookup in a
// resident interval index — never asks for the image. With a nil info,
// load is called up front for the metadata.
func ExecuteImageTraced(q *Query, load func() (*relation.Image, error), info *RelationInfo, tr *obs.QueryTrace) (*QueryResult, error) {
	src := &imageSource{load: load}
	var meta RelationInfo
	if info != nil {
		meta = *info
	} else {
		img, err := src.image()
		if err != nil {
			return nil, err
		}
		meta = RelationInfo{Tuples: img.Len(), Sorted: img.Sorted(), KBound: -1}
	}
	return executeSource(q, src, meta, tr)
}

// imageSource is a relation image, loaded on first use. The scan reads it
// by index; Next and Reset serve Tuma's two passes.
type imageSource struct {
	load func() (*relation.Image, error)
	img  *relation.Image
	pos  int
}

func (s *imageSource) image() (*relation.Image, error) {
	if s.img == nil {
		img, err := s.load()
		if err != nil {
			return nil, err
		}
		s.img = img
	}
	return s.img, nil
}

func (s *imageSource) Next() (tuple.Tuple, bool, error) {
	img, err := s.image()
	if err != nil || s.pos >= img.Len() {
		return tuple.Tuple{}, false, err
	}
	t, err := img.Tuple(s.pos)
	if err != nil {
		return tuple.Tuple{}, false, err
	}
	s.pos++
	return t, true, nil
}

func (s *imageSource) Reset() error {
	s.pos = 0
	return nil
}

// sorted materializes the image's tuples and sorts them by time, as the
// in-memory route sorts a copy of its slice.
func (s *imageSource) sorted() (core.TupleSource, func(), error) {
	img, err := s.image()
	if err != nil {
		return nil, nil, err
	}
	ts, err := img.Tuples()
	if err != nil {
		return nil, nil, err
	}
	sort.SliceStable(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
	return sliceSource{core.NewSliceSource(ts)}, func() {}, nil
}

func (*imageSource) route() string { return "image" }
