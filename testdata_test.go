package xmlspec

// End-to-end tests over the testdata corpus: the paper's worked
// specifications as on-disk files, exactly as a user of the CLI tools
// would write them.

import (
	"os"
	"path/filepath"
	"testing"
)

func load(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestCorpusSchool(t *testing.T) {
	spec, err := Parse(load(t, "school.dtd"), load(t, "school.keys"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Consistent(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Consistent || res.Witness == "" {
		t.Fatalf("school: %v (%s)", res.Verdict, res.Diagnosis)
	}
	ext, err := Parse(load(t, "school.dtd"), load(t, "school-extended.keys"))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ext.Consistent(&Options{SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Verdict != Inconsistent {
		t.Fatalf("extended school: %v", res2.Verdict)
	}
}

func TestCorpusGeography(t *testing.T) {
	spec, err := Parse(load(t, "geography.dtd"), load(t, "geography.keys"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Consistent(&Options{SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Inconsistent {
		t.Fatalf("geography: %v", res.Verdict)
	}
	// The sample document violates the (inconsistent) constraints, as
	// any document must.
	vs, err := spec.ValidateDocument(load(t, "geography.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("geography.xml claims to satisfy an inconsistent specification")
	}
	// But it does conform to the DTD alone.
	dtdOnly, err := Parse(load(t, "geography.dtd"), "")
	if err != nil {
		t.Fatal(err)
	}
	vs2, err := dtdOnly.ValidateDocument(load(t, "geography.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs2) != 0 {
		t.Fatalf("geography.xml does not conform: %v", vs2)
	}
}

func TestCorpusLibrary(t *testing.T) {
	spec, err := Parse(load(t, "library.dtd"), load(t, "library.keys"))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Hierarchical() {
		t.Fatal("library must be hierarchical")
	}
	res, err := spec.Consistent(&Options{MinimizeWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != Consistent || res.Witness == "" {
		t.Fatalf("library: %v (%s)", res.Verdict, res.Diagnosis)
	}
	// The minimized witness must itself validate both ways.
	if vs, err := spec.ValidateDocument(res.Witness); err != nil || len(vs) != 0 {
		t.Fatalf("witness validation: %v %v", vs, err)
	}
}

func TestCorpusShop(t *testing.T) {
	spec, err := Parse(load(t, "shop.dtd"), load(t, "shop.keys"))
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Hierarchical() {
		t.Fatal("shop must be hierarchical")
	}
	res, err := spec.Consistent(&Options{SkipWitness: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both sibling scopes are refuted, so the root scope is too; the
	// lint prepass must leave the refutation to the scope decomposition.
	if res.Verdict != Inconsistent || res.Method != "hierarchical scope decomposition (Theorem 4.3)" {
		t.Fatalf("shop: %v by %q", res.Verdict, res.Method)
	}
	if res.Stats.Scopes != 3 {
		t.Fatalf("shop: %d scopes, want 3", res.Stats.Scopes)
	}
}
