package query

import (
	"strconv"
	"testing"

	"tempagg/internal/interval"
	"tempagg/internal/obs"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// imageOf writes rel to a file and loads its image.
func imageOf(t *testing.T, rel *relation.Relation) *relation.Image {
	t.Helper()
	img, err := relation.LoadImage(writeRelation(t, rel))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// imageScanAllocBound caps the objects one windowed COUNT over a resident
// image allocates: plan, trace-free execution, the evaluator and its ~100
// result rows. Measured at 43–65 with go1.24; anything per scanned tuple
// would be tens of thousands.
const imageScanAllocBound = 100

// TestImageScanAllocations: an ungrouped windowed COUNT over a resident
// image allocates a small constant number of objects, at 16K tuples as at
// 64K — no tuple is allocated, unlike the file route's one name string
// per tuple.
func TestImageScanAllocations(t *testing.T) {
	for _, order := range []workload.Order{workload.Random, workload.Sorted} {
		for _, n := range []int{1 << 14, 1 << 16} {
			rel, err := workload.Generate(workload.Config{Tuples: n, Order: order, Seed: 61})
			if err != nil {
				t.Fatal(err)
			}
			rel.Name = "R"
			img := imageOf(t, rel)
			q := mustParse(t, "SELECT COUNT(Name) FROM R VALID OVERLAPS 500000 500999")
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := ExecuteImage(q, img, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > imageScanAllocBound {
				t.Errorf("%s %d tuples: %.0f allocations per query, want at most %d",
					order, n, allocs, imageScanAllocBound)
			}
		}
	}
}

// TestImageSortFirstSortsOnlyWindow: a KTREE 1 query over an unsorted image
// with a narrow VALID window builds and sorts only the tuples that overlap
// the window — the sort span counts them — and returns the memory route's
// rows.
func TestImageSortFirstSortsOnlyWindow(t *testing.T) {
	rel, err := workload.Generate(workload.Config{Tuples: 4000, LongLivedPct: 20, Order: workload.Random, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	rel.Name = "R"
	window := interval.MustNew(500000, 509999)
	inWindow := 0
	for _, tu := range rel.Tuples {
		if tu.Valid.Overlaps(window) {
			inWindow++
		}
	}
	if inWindow == 0 || inWindow > rel.Len()/2 {
		t.Fatalf("window admits %d of %d tuples; the test needs a narrow, non-empty one", inWindow, rel.Len())
	}
	q := mustParse(t, "SELECT COUNT(Name), MAX(Salary) FROM R VALID OVERLAPS 500000 509999 USING KTREE 1")
	tr := obs.NewQueryTrace(q.String())
	img := imageOf(t, rel)
	got, err := ExecuteImageTraced(q, func() (*relation.Image, error) { return img, nil }, nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	sorted := false
	for _, sp := range tr.SpanTree() {
		for _, c := range sp.Children {
			if c.Name != "sort" {
				continue
			}
			sorted = true
			if n := c.Attrs["tuples"]; n != strconv.Itoa(inWindow) {
				t.Errorf("sort span sorted %s tuples, want the window's %d", n, inWindow)
			}
		}
	}
	if !sorted {
		t.Fatal("the unsorted image was not sorted for KTREE 1")
	}
	mem, err := Execute(q, rel, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "image", mem, got)
}
