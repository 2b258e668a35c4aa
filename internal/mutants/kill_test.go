package mutants

import (
	"bytes"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var kill = flag.Bool("kill", false, "apply each mutant to a copy of the module and run its killers")

// killTimeout bounds one killer's go test run; a mutant that hangs its
// killer is killed by the timeout's failure.
const killTimeout = "5m"

// TestKill applies every entry of the table to its own copy of the module
// and runs its killers: a killer that passes (a survivor) or an edit that
// does not build (a broken entry) fails the entry.
func TestKill(t *testing.T) {
	if !*kill {
		t.Skip("the kill run needs -kill")
	}
	root := moduleRoot(t)
	for _, m := range table {
		t.Run(m.name, func(t *testing.T) {
			r := run(t, root, m)
			t.Log(r)
			if r.broken != "" {
				t.Errorf("mutant %s does not build:\n%s", m.name, r.broken)
			}
			for _, k := range r.killers {
				if !k.killed {
					t.Errorf("mutant %s survives %s %s, so nothing checks that %s:\n%s", m.name, k.pkg, k.test, m.claim, k.out)
				}
			}
		})
	}
}

// TestKillReportsSurvivor shows the kill run can fail: an edit inside a
// comment changes no behaviour, so its killer must pass and the runner must
// report it as a survivor.
func TestKillReportsSurvivor(t *testing.T) {
	if !*kill {
		t.Skip("the kill run needs -kill")
	}
	m := mutant{
		name:    "comment-only",
		file:    "internal/tid/tid.go",
		old:     "// Package tid",
		new:     "// Package tid (edited)",
		killers: []killer{{"internal/tid", "TestFieldRoundTrip"}},
	}
	root := moduleRoot(t)
	if errs := check(root, []mutant{m}); len(errs) != 0 {
		t.Fatal(errs)
	}
	r := run(t, root, m)
	t.Log(r)
	if r.broken != "" || len(r.killers) != 1 || r.killers[0].killed {
		t.Fatalf("a comment-only edit was not reported as a survivor: %s", r)
	}
}

// result is what one entry's kill run found.
type result struct {
	name    string
	broken  string // the build output when the edited tree does not build
	killers []outcome
}

type outcome struct {
	killer
	killed bool
	took   time.Duration
	out    string // the go test output
}

func (r result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", r.name)
	if r.broken != "" {
		b.WriteString(" broken entry")
	}
	for _, k := range r.killers {
		verdict := "survived"
		if k.killed {
			verdict = "killed: " + firstFailure(k.out)
		}
		fmt.Fprintf(&b, "\n\t%s %s %.1fs %s", k.pkg, k.test, k.took.Seconds(), verdict)
	}
	return b.String()
}

// run copies the module under root into a temporary directory, applies m
// and runs each killer there.
func run(t *testing.T, root string, m mutant) result {
	t.Helper()
	dir := t.TempDir()
	if err := copyModule(root, dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.file)
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(src, []byte(m.old)); n != 1 {
		t.Fatalf("mutant %s: old string occurs %d times in %s", m.name, n, m.file)
	}
	if err := os.WriteFile(path, bytes.Replace(src, []byte(m.old), []byte(m.new), 1), 0o644); err != nil {
		t.Fatal(err)
	}

	r := result{name: m.name}
	// Build every killer's test binary first, running no test, so that an
	// edit that does not compile (or fails go test's vet checks) is told
	// apart from a kill.
	build := []string{"test", "-count=1", "-trimpath", "-run", "^$"}
	for _, k := range m.killers {
		build = append(build, "./"+filepath.ToSlash(k.pkg))
	}
	if out, err := gocmd(dir, build...); err != nil {
		r.broken = out
		return r
	}
	for _, k := range m.killers {
		start := time.Now()
		out, err := gocmd(dir, "test", "-count=1", "-trimpath", "-timeout", killTimeout,
			"-run", "^"+k.test+"$", "./"+filepath.ToSlash(k.pkg))
		r.killers = append(r.killers, outcome{killer: k, killed: err != nil, took: time.Since(start), out: out})
	}
	return r
}

// gocmd runs the go command in dir. -trimpath keys the build cache on the
// sources alone, so a fresh copy of the module reuses every package its
// edit did not touch.
func gocmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// copyModule copies the module's sources from root to dst, leaving out
// the git directory, the benchmark module and its build outputs.
func copyModule(root, dst string) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch rel {
			case ".git", "benchmark", ".bench_build":
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

// firstFailure is the first line of go test output that says why it
// failed: a ledger row outside its bound, else a failed test's first
// message, a panic or a timeout.
func firstFailure(out string) string {
	lines := strings.Split(out, "\n")
	for _, line := range lines {
		if strings.Contains(line, ", outside ") {
			return strings.TrimSpace(line)
		}
	}
	failed := false
	for _, line := range lines {
		line = strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(line, "panic:"):
			return line
		case strings.HasPrefix(line, "--- FAIL"):
			failed = true
		case failed && line != "":
			return line
		}
	}
	return "go test failed"
}
