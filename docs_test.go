package clustermarket_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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

// TestEventTableListsEveryKind holds DESIGN.md's event table ("Event log
// & durability") to the code: each stream's row lists exactly the Ev*
// kinds its event.go defines, so adding or deleting a kind cannot leave
// the table stale.
func TestEventTableListsEveryKind(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(design), "\n## Event log & durability\n")
	section, _, _ = strings.Cut(section, "\n## ")
	note := regexp.MustCompile(` \([^)]*\)`)
	kind := regexp.MustCompile(`(?m)^\s*Ev\w+\s*=\s*"([^"]+)"`)
	for stream, src := range map[string]string{
		"market":     "internal/market/event.go",
		"federation": "internal/federation/event.go",
	} {
		row := regexp.MustCompile(`(?m)^\| ` + stream + ` \| (.+) \|$`).FindStringSubmatch(section)
		if row == nil {
			t.Errorf("DESIGN.md's event table has no %s row", stream)
			continue
		}
		listed := strings.Split(note.ReplaceAllString(row[1], ""), ", ")
		code, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		var defined []string
		for _, m := range kind.FindAllStringSubmatch(string(code), -1) {
			defined = append(defined, m[1])
		}
		slices.Sort(listed)
		slices.Sort(defined)
		if !slices.Equal(listed, defined) {
			t.Errorf("DESIGN.md lists %s events %v; %s defines %v", stream, listed, src, defined)
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
