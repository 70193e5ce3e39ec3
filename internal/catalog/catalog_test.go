package catalog

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tempagg/internal/core"
	"tempagg/internal/relation"
	"tempagg/internal/workload"
)

// newCatalogDir builds a directory with two relations.
func newCatalogDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := relation.WriteFile(filepath.Join(dir, "Employed.rel"), relation.Employed()); err != nil {
		t.Fatal(err)
	}
	synth, err := workload.Generate(workload.Config{Tuples: 500, Order: workload.Sorted, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := relation.WriteFile(filepath.Join(dir, "Synth.rel"), synth); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestOpenDiscoversRelations(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "Employed" || names[1] != "Synth" {
		t.Fatalf("names = %v", names)
	}
	e, err := c.Entry("Employed")
	if err != nil {
		t.Fatal(err)
	}
	if e.KBound != -1 {
		t.Fatalf("default KBound = %d, want -1", e.KBound)
	}
}

func TestDeclareAndPersist(t *testing.T) {
	dir := newCatalogDir(t)
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Declare("Employed", Entry{KBound: 4, Comment: "HR feed"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}

	again, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, err := again.Entry("Employed")
	if err != nil {
		t.Fatal(err)
	}
	if e.KBound != 4 || e.Comment != "HR feed" {
		t.Fatalf("persisted entry = %+v", e)
	}
	// The declaration reaches the optimizer.
	info, err := again.Info("Employed")
	if err != nil {
		t.Fatal(err)
	}
	if info.KBound != 4 || info.Tuples != 4 {
		t.Fatalf("info = %+v", info)
	}
}

func TestInfoUsesHeaderSortedFlag(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Info("Synth")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Sorted || info.Tuples != 500 {
		t.Fatalf("info = %+v", info)
	}
}

func TestCatalogQuery(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	qr, err := c.Query("SELECT COUNT(Name) FROM Employed", relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Groups[0].Result.Rows) != 7 {
		t.Fatalf("%d rows", len(qr.Groups[0].Result.Rows))
	}
	// A sorted relation streams through ktree(1).
	qr, err = c.Query("SELECT AVG(Salary) FROM Synth", relation.ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if qr.Plan.Spec.Algorithm != core.KOrderedTree || qr.Plan.Spec.K != 1 {
		t.Fatalf("plan = %v", qr.Plan)
	}
}

func TestCatalogQueryUnknownRelation(t *testing.T) {
	c, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT COUNT(Name) FROM Nope", relation.ScanOptions{}); err == nil {
		t.Fatal("unknown relation must fail")
	}
	if err := c.Declare("Nope", Entry{}); err == nil {
		t.Fatal("declaring an unknown relation must fail")
	}
}

func TestOpenRejectsDanglingDeclaration(t *testing.T) {
	dir := newCatalogDir(t)
	meta := `{"Ghost":{"file":"Ghost.rel","kbound":3}}`
	if err := os.WriteFile(filepath.Join(dir, MetadataFile), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("dangling declaration must be reported")
	}
}

func TestOpenRejectsBadMetadata(t *testing.T) {
	dir := newCatalogDir(t)
	if err := os.WriteFile(filepath.Join(dir, MetadataFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("bad metadata must be reported")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nonexistent")); err == nil {
		t.Fatal("missing directory must fail")
	}
}

// TestConcurrentDeclareAndRead pins down the Catalog's concurrency
// contract: Declare's map write must not race with readers. Run under
// -race; before entries was guarded by an RWMutex this test failed.
func TestConcurrentDeclareAndRead(t *testing.T) {
	cat, err := Open(newCatalogDir(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				switch w % 4 {
				case 0:
					if err := cat.Declare("Synth", Entry{KBound: i}); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if _, err := cat.Entry("Employed"); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if len(cat.Names()) != 2 {
						t.Error("catalog lost a relation")
						return
					}
				case 3:
					if _, err := cat.Info("Synth"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	e, err := cat.Entry("Synth")
	if err != nil {
		t.Fatal(err)
	}
	if e.File != "Synth.rel" {
		t.Fatalf("Declare must preserve the file binding, got %q", e.File)
	}
}
