package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The golden tests load seeded packages from testdata/src and check each
// analyzer's diagnostics against `// want ...` comments: every diagnostic
// must match a backquoted substring on its own line, and every want comment
// must be matched by a diagnostic. Corrected forms in the same files carry no
// want comment, proving the analyzers stay silent on them.

const testdataRoot = "internal/lint/testdata/src"

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test working directory")
		}
		dir = parent
	}
}

func loadTestPkg(t *testing.T, sub string) *Program {
	t.Helper()
	prog, err := Load(moduleRoot(t), filepath.Join(testdataRoot, sub))
	if err != nil {
		t.Fatalf("loading %s: %v", sub, err)
	}
	return prog
}

var wantPattern = regexp.MustCompile("`([^`]+)`")

type expectation struct {
	pattern string
	matched bool
}

// collectWants gathers the want comments from the program's target packages,
// keyed by "file:line".
func collectWants(prog *Program) map[string][]*expectation {
	out := make(map[string][]*expectation)
	for _, pkg := range prog.TargetPackages() {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					if !strings.HasPrefix(c.Text, "// want ") {
						continue
					}
					pos := prog.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, m := range wantPattern.FindAllStringSubmatch(c.Text, -1) {
						out[key] = append(out[key], &expectation{pattern: m[1]})
					}
				}
			}
		}
	}
	return out
}

func checkGolden(t *testing.T, prog *Program, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(prog)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		found := false
		for _, exp := range wants[key] {
			if !exp.matched && strings.Contains(d.Message, exp.pattern) {
				exp.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, exps := range wants {
		for _, exp := range exps {
			if !exp.matched {
				t.Errorf("%s: expected a diagnostic containing %q, got none", key, exp.pattern)
			}
		}
	}
}

func TestMutexHoldGolden(t *testing.T) {
	prog := loadTestPkg(t, "mutexhold")
	checkGolden(t, prog, NewMutexHold(nil).Analyze(prog))
}

func TestErrDropGolden(t *testing.T) {
	prog := loadTestPkg(t, "errdrop")
	must := []string{
		"ray/internal/lint/testdata/src/errdrop.DB.*",
		"ray/internal/lint/testdata/src/errdrop.Persist",
	}
	checkGolden(t, prog, NewErrDrop(must).Analyze(prog))
}

// TestLockOrderFindsCycles asserts on whole-cycle messages: the direct ABBA
// pair, the cycle closed through a helper call and an interface method, and
// the absence of the acyclic e.mu lock from any report.
func TestLockOrderFindsCycles(t *testing.T) {
	prog := loadTestPkg(t, "lockorder")
	diags := NewLockOrder().Analyze(prog)
	if len(diags) != 2 {
		t.Fatalf("want 2 cycle diagnostics, got %d: %v", len(diags), diags)
	}
	var direct, indirect string
	for _, d := range diags {
		if !strings.Contains(d.Message, "lock order cycle") {
			t.Errorf("diagnostic missing cycle header: %s", d)
		}
		switch {
		case strings.Contains(d.Message, "lockorder.a.mu"):
			direct = d.Message
		case strings.Contains(d.Message, "lockorder.c.mu"):
			indirect = d.Message
		}
	}
	for _, want := range []string{"lockorder.a.mu -> lockorder.b.mu", "lockorder.b.mu -> lockorder.a.mu"} {
		if !strings.Contains(direct, want) {
			t.Errorf("direct ABBA cycle missing %q in: %s", want, direct)
		}
	}
	for _, want := range []string{"lockorder.c.mu -> lockorder.d.mu", "lockorder.d.mu -> lockorder.c.mu", "via"} {
		if !strings.Contains(indirect, want) {
			t.Errorf("indirect cycle missing %q in: %s", want, indirect)
		}
	}
	if strings.Contains(direct, "e.mu") || strings.Contains(indirect, "e.mu") {
		t.Errorf("acyclic lock e.mu must not appear in any cycle report")
	}
}

// TestIgnoreDirectives runs the suppression mechanism end to end: directives
// above and trailing the violation suppress it, an unused directive and a
// malformed one surface as staleignore, and unsuppressed findings survive.
func TestIgnoreDirectives(t *testing.T) {
	prog := loadTestPkg(t, "ignore")
	must := []string{"ray/internal/lint/testdata/src/ignore.DB.*"}
	diags := NewErrDrop(must).Analyze(prog)

	ignores, malformed := CollectIgnores(prog)
	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "malformed directive") {
		t.Fatalf("want 1 malformed-directive diagnostic, got %v", malformed)
	}

	final := ApplyIgnores(diags, ignores, true)
	final = append(final, malformed...)
	SortDiagnostics(final)

	counts := map[string]int{}
	for _, d := range final {
		counts[d.Check]++
	}
	if counts["errdrop"] != 1 || counts[StaleIgnoreCheck] != 2 {
		t.Fatalf("want 1 surviving errdrop + 2 staleignore, got %v (%v)", counts, final)
	}
	for _, d := range final {
		if d.Check == StaleIgnoreCheck && !strings.Contains(d.Message, "suppresses no errdrop") && !strings.Contains(d.Message, "malformed directive") {
			t.Errorf("unexpected staleignore message: %s", d)
		}
	}

	// Single-analyzer runs (reportStale=false) must not report staleness.
	quiet := ApplyIgnores(diags, ignores, false)
	if len(quiet) != 1 || quiet[0].Check != "errdrop" {
		t.Errorf("reportStale=false should leave only the surviving errdrop finding, got %v", quiet)
	}
}

func TestGuardedByGolden(t *testing.T) {
	prog := loadTestPkg(t, "guardedby")
	checkGolden(t, prog, NewGuardedBy().Analyze(prog))
}

func TestCtxFlowGolden(t *testing.T) {
	prog := loadTestPkg(t, "ctxflow")
	pkgs := []string{"ray/internal/lint/testdata/src/ctxflow"}
	checkGolden(t, prog, NewCtxFlow(pkgs, nil, nil).Analyze(prog))
}

// TestGuardedByMalformedDirectives validates every rejected directive form:
// the diagnostics land on the directive comments themselves, so this is a
// message-substring test rather than a golden one.
func TestGuardedByMalformedDirectives(t *testing.T) {
	prog := loadTestPkg(t, "guardedbybad")
	diags := NewGuardedBy().Analyze(prog)
	wants := []string{
		"struct malformed has mutex field(s) mu, e but no //guard: annotations",
		"malformed directive: want //guard:by <lockfield>",
		"is not a sync.Mutex or sync.RWMutex field",
		"the .R (read-lock-sufficient) form needs a sync.RWMutex",
		"unknown directive //guard:wat",
		"mutex field e is a guard, not a guarded field",
		"//guard:holds belongs on a method declaration, not a struct field",
	}
	if len(diags) != len(wants) {
		t.Fatalf("want %d directive diagnostics, got %d: %v", len(wants), len(diags), diags)
	}
	for i, want := range wants {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("diagnostic %d: want substring %q, got: %s", i, want, diags[i])
		}
	}
}

// TestIgnoreEdgeCases exercises suppression placements the basic ignore test
// does not: a directive inside a struct field list (suppressing a field-level
// guardedby directive diagnostic), a directive above a statement spanning
// several lines, and two directives for different checks whose diagnostics
// share one statement line.
func TestIgnoreEdgeCases(t *testing.T) {
	prog := loadTestPkg(t, "ignore2")
	var diags []Diagnostic
	diags = append(diags, NewMutexHold(nil).Analyze(prog)...)
	diags = append(diags, NewGuardedBy().Analyze(prog)...)
	if len(diags) != 4 {
		t.Fatalf("want 4 seeded diagnostics before suppression, got %d: %v", len(diags), diags)
	}

	ignores, malformed := CollectIgnores(prog)
	if len(malformed) != 0 {
		t.Fatalf("no directive in ignore2 is malformed, got %v", malformed)
	}
	final := ApplyIgnores(diags, ignores, true)
	if len(final) != 0 {
		t.Errorf("every seeded diagnostic should be suppressed and no directive stale, got %v", final)
	}
}
