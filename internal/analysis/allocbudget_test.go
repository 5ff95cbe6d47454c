package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseEscapeOutput(t *testing.T) {
	out := strings.Join([]string{
		"# hybridstore/internal/engine",
		"internal/engine/engine.go:79:6: can inline (*Config).fillDefaults",
		"internal/engine/engine.go:239:20: make([]byte, n) escapes to heap",
		"internal/engine/conjunctive.go:193:6: moved to heap: stats",
		"internal/engine/engine.go:173:18: inlining call to math.Log2",
		"not a diagnostic line",
		"",
	}, "\n")
	sites := parseEscapeOutput(out)
	if len(sites) != 2 {
		t.Fatalf("got %d escape sites, want 2: %v", len(sites), sites)
	}
	if sites[0].file != "internal/engine/engine.go" || sites[0].line != 239 {
		t.Errorf("site 0 = %+v, want engine.go:239", sites[0])
	}
	if sites[1].file != "internal/engine/conjunctive.go" || sites[1].line != 193 {
		t.Errorf("site 1 = %+v, want conjunctive.go:193", sites[1])
	}
}

func TestParseBudgetFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allocbudget.txt")
	content := "# header comment\n\nhybridstore/internal/engine (*Engine).Execute 6 # rationale\npkg Fn 0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := ParseBudgetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2: %v", len(entries), entries)
	}
	want := BudgetEntry{Pkg: "hybridstore/internal/engine", Func: "(*Engine).Execute", Max: 6, Line: 3}
	if entries[0] != want {
		t.Errorf("entry 0 = %+v, want %+v", entries[0], want)
	}
	if entries[1].Line != 4 || entries[1].Max != 0 {
		t.Errorf("entry 1 = %+v, want line 4 budget 0", entries[1])
	}

	for _, bad := range []string{"pkg Fn\n", "pkg Fn -1\n", "pkg Fn many\n"} {
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseBudgetFile(path); err == nil {
			t.Errorf("budget line %q parsed without error", strings.TrimSpace(bad))
		}
	}
}

// TestAllocBudgetGate drives the real gate end to end against this module:
// a zero budget on a function with known escapes must fire, a stale entry
// must fire at the budget file, and the committed allocbudget.txt at the
// module root must be clean (the allocbudget half of TestRepoIsClean).
func TestAllocBudgetGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build -gcflags=-m over hot-path packages")
	}

	seeded, err := os.CreateTemp(".", "allocbudget_seed_*.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer os.Remove(seeded.Name())
	content := "hybridstore/internal/index (*BlockCursor).Next 0\n" + // has escapes on error paths: must fire
		"hybridstore/internal/index (*BlockCursor).Reset 0\n" + // genuinely zero-escape: must stay clean
		"hybridstore/internal/index NoSuchFunction 0\n" // stale entry: must fire at the budget file
	if _, err := seeded.WriteString(content); err != nil {
		t.Fatal(err)
	}
	if err := seeded.Close(); err != nil {
		t.Fatal(err)
	}

	diags, err := RunAllocBudget(seeded.Name())
	if err != nil {
		t.Fatal(err)
	}
	var overBudget, stale bool
	for _, d := range diags {
		if d.Analyzer != AllocBudgetName {
			t.Errorf("diagnostic under analyzer %q, want %q", d.Analyzer, AllocBudgetName)
		}
		switch {
		case strings.Contains(d.Message, "(*BlockCursor).Next") && strings.Contains(d.Message, "over its committed budget of 0"):
			overBudget = true
		case strings.Contains(d.Message, "(*BlockCursor).Reset"):
			t.Errorf("zero-escape function reported over budget: %s", d)
		case strings.Contains(d.Message, "NoSuchFunction") && strings.Contains(d.Message, "stale"):
			stale = true
			if d.Pos.Filename != seeded.Name() || d.Pos.Line != 3 {
				t.Errorf("stale entry reported at %s:%d, want %s:3", d.Pos.Filename, d.Pos.Line, seeded.Name())
			}
		}
	}
	if !overBudget {
		t.Errorf("zero budget on (*BlockCursor).Next did not fire; diagnostics: %v", diags)
	}
	if !stale {
		t.Errorf("stale budget entry did not fire; diagnostics: %v", diags)
	}

	committed, err := RunAllocBudget(filepath.Join("..", "..", BudgetFileName))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range committed {
		t.Errorf("committed budget not clean: %s", d)
	}
}

// TestSitePath covers every form in which the go command has been seen to
// print one escape site: relative to the package directory, to a sibling or
// ancestor working directory, or to the module root, depending on where the
// cached compile first ran. All of them must land on the same file, and
// sites of other packages must be dropped.
func TestSitePath(t *testing.T) {
	pkgDir := filepath.Join(string(filepath.Separator)+"mod", "internal", "index")
	want := filepath.Join(pkgDir, "codec.go")
	for _, printed := range []string{
		"../index/codec.go",
		"index/codec.go",
		"internal/index/codec.go",
		"../../internal/index/codec.go",
		"./codec.go",
		"codec.go",
		"../codec.go",
		want,
	} {
		got, ok := sitePath(filepath.FromSlash(printed), pkgDir)
		if !ok || got != want {
			t.Errorf("sitePath(%q) = %q, %v; want %q, true", printed, got, ok, want)
		}
	}
	for _, printed := range []string{
		"../engine/engine.go",
		"internal/engine/engine.go",
		"other/internal/index/codec.go",
		filepath.Join(string(filepath.Separator)+"goroot", "src", "slices", "sort.go"),
	} {
		if got, ok := sitePath(filepath.FromSlash(printed), pkgDir); ok {
			t.Errorf("sitePath(%q) = %q, true; want a site outside the package", printed, got)
		}
	}
}

// TestAllocBudgetGateFromSubdirectory runs the gate with the same budgets
// from two directories that are not the module root, over packages in
// other directories, and requires identical findings: escape counts must
// not depend on where the go command runs.
func TestAllocBudgetGateFromSubdirectory(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go build -gcflags=-m over hot-path packages")
	}
	content := "hybridstore/internal/engine (*Engine).Execute 0\n" +
		"hybridstore/internal/index (*BlockCursor).Next 0\n" +
		"hybridstore/internal/core (*Manager).ReadListRange 0\n" +
		"hybridstore/internal/storage (*SparseBuffer).WriteAt 0\n"
	nested, err := os.MkdirTemp("testdata", "budgetdir_*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(nested)
	var runs [2][]string
	for i, dir := range []string{".", nested} {
		f, err := os.CreateTemp(dir, "allocbudget_zero_*.txt")
		if err != nil {
			t.Fatal(err)
		}
		defer os.Remove(f.Name())
		if _, err := f.WriteString(content); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		diags, err := RunAllocBudget(f.Name())
		if err != nil {
			t.Fatalf("gate run from %s: %v", dir, err)
		}
		for _, d := range diags {
			runs[i] = append(runs[i], d.String())
		}
	}
	if len(runs[0]) != 4 {
		t.Errorf("zero budgets on four escaping functions gave %d findings: %v", len(runs[0]), runs[0])
	}
	if strings.Join(runs[0], "\n") != strings.Join(runs[1], "\n") {
		t.Errorf("findings depend on the invocation directory:\n%s\nvs\n%s",
			strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"))
	}
}
