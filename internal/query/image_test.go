package query

import (
	"testing"

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
