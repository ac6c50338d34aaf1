package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// These tests pin the exit contract CI relies on: 0 clean, 1 findings
// (one -json object per finding on stdout), 2 load error. They build
// the real binary, because `go run` folds exit status 2 into 1.

func buildLint(t *testing.T) string {
	t.Helper()
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin := filepath.Join(t.TempDir(), "unsync-lint")
	out, err := exec.Command(gobin, "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// writeModule writes a fixture module and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// runLint runs the binary and returns its stdout and exit status.
func runLint(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("run %s: %v\n%s", bin, err, stderr.String())
	return "", -1
}

const fixtureGoMod = "module example.com/fixture\n\ngo 1.22\n"

func TestExitContract(t *testing.T) {
	bin := buildLint(t)

	t.Run("clean", func(t *testing.T) {
		root := writeModule(t, map[string]string{
			"go.mod":     fixtureGoMod,
			"fixture.go": "package fixture\n\n// Two is deterministic.\nfunc Two() int { return 2 }\n",
		})
		out, code := runLint(t, bin, "-C", root, "-json")
		if code != 0 || out != "" {
			t.Errorf("exit %d, stdout %q; want 0 and nothing", code, out)
		}
	})

	t.Run("one finding", func(t *testing.T) {
		root := writeModule(t, map[string]string{
			"go.mod": fixtureGoMod,
			"fixture.go": `package fixture

import "time"

// Stamp reads the wall clock without an audit directive.
func Stamp() time.Time { return time.Now() }
`,
		})
		out, code := runLint(t, bin, "-C", root, "-json")
		if code != 1 {
			t.Fatalf("exit %d, want 1; stdout %q", code, out)
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if len(lines) != 1 {
			t.Fatalf("got %d output lines, want one JSON object: %q", len(lines), out)
		}
		var f struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		}
		if err := json.Unmarshal([]byte(lines[0]), &f); err != nil {
			t.Fatalf("stdout line is not a JSON object: %v: %q", err, lines[0])
		}
		if f.Rule != "wallclock" || f.Line != 6 || !strings.HasSuffix(f.File, "fixture.go") {
			t.Errorf("finding = %+v, want wallclock at fixture.go:6", f)
		}
	})

	t.Run("no go.mod", func(t *testing.T) {
		out, code := runLint(t, bin, "-C", t.TempDir(), "-json")
		if code != 2 || out != "" {
			t.Errorf("exit %d, stdout %q; want 2 and nothing", code, out)
		}
	})
}
