package repro

// Tooling regression test: the fuzz target list is written twice, in the
// Makefile `fuzz` target and in the ci.yml fuzz matrix. A Fuzz function
// missing from a list is never fuzzed there, and a listed target that no
// longer exists fails only when that job runs. This test keeps both
// lists equal to the module's Fuzz functions.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	fuzzFuncRE     = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(\w+ \*testing\.F\)`)
	fuzzMakefileRE = regexp.MustCompile(`(?m)-fuzz='\^(Fuzz\w+)\$\$'.*\s(\./\S+)\s*$`)
	fuzzCIRE       = regexp.MustCompile(`\{\s*fuzz:\s*(Fuzz\w+),\s*pkg:\s*(\./[^\s}]+)\s*\}`)
)

// moduleFuzzTargets returns "pkg FuzzName" for every Fuzz function in
// this module's test files. Nested modules (perfbench) are skipped.
func moduleFuzzTargets(t *testing.T) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzFuncRE.FindAllStringSubmatch(string(src), -1) {
			out = append(out, pkg+" "+m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking the module: %v", err)
	}
	slices.Sort(out)
	return out
}

// listedFuzzTargets returns "pkg FuzzName" for every match of re (groups:
// name, package) in the file at path.
func listedFuzzTargets(t *testing.T, path string, re *regexp.Regexp) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	var out []string
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		out = append(out, m[2]+" "+m[1])
	}
	slices.Sort(out)
	return out
}

func TestFuzzTargetsListed(t *testing.T) {
	want := moduleFuzzTargets(t)
	if len(want) == 0 {
		t.Fatal("no Fuzz functions found in the module")
	}
	for _, list := range []struct {
		path string
		re   *regexp.Regexp
	}{
		{"Makefile", fuzzMakefileRE},
		{".github/workflows/ci.yml", fuzzCIRE},
	} {
		got := listedFuzzTargets(t, list.path, list.re)
		for _, w := range want {
			if !slices.Contains(got, w) {
				t.Errorf("%s does not fuzz %s", list.path, w)
			}
		}
		for _, g := range got {
			if !slices.Contains(want, g) {
				t.Errorf("%s fuzzes %s, which does not exist", list.path, g)
			}
		}
	}
}
