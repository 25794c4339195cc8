package clustermarket_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocumentSizes holds the two long-lived documents to their bars:
// DESIGN.md describes the system as it is and CHANGES.md keeps one short
// paragraph a change, with run logs left to git history. A change may
// grow a document only by the section it changes.
func TestDocumentSizes(t *testing.T) {
	for _, doc := range []struct {
		name string
		max  int64
	}{
		{"DESIGN.md", 60_000},
		{"CHANGES.md", 40_000},
	} {
		fi, err := os.Stat(doc.name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > doc.max {
			t.Errorf("%s is %d bytes, over its %d-byte bar", doc.name, fi.Size(), doc.max)
		}
	}
}

// TestMakeFuzzRunsEveryTarget holds `make fuzz` to the module's fuzz
// targets: each of its lines must select exactly one func Fuzz* of the
// package it names (go test -fuzz refuses a pattern matching several),
// and every func Fuzz* in the module must be selected by one line.
func TestMakeFuzzRunsEveryTarget(t *testing.T) {
	targets := map[string][]string{} // package dir -> its fuzz targets
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module
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
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			dir := filepath.ToSlash(filepath.Dir(path))
			targets[dir] = append(targets[dir], string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	run := map[string]bool{} // dir + " " + target
	line := regexp.MustCompile(`(?m)^\t\$\(GO\) test -fuzz (\S+) .* \./(\S+)$`)
	lines := line.FindAllSubmatch(mk, -1)
	if len(lines) == 0 {
		t.Fatal("no fuzz lines found in the Makefile")
	}
	for _, l := range lines {
		pattern := strings.ReplaceAll(strings.Trim(string(l[1]), "'"), "$$", "$")
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("make fuzz pattern %q: %v", l[1], err)
			continue
		}
		dir := string(l[2])
		var hit []string
		for _, name := range targets[dir] {
			if re.MatchString(name) {
				hit = append(hit, name)
			}
		}
		if len(hit) != 1 {
			t.Errorf("make fuzz runs %q in ./%s, which matches %v; want exactly one target", pattern, dir, hit)
			continue
		}
		run[dir+" "+hit[0]] = true
	}
	for dir, names := range targets {
		for _, name := range names {
			if !run[dir+" "+name] {
				t.Errorf("make fuzz does not run %s in ./%s", name, dir)
			}
		}
	}
}
