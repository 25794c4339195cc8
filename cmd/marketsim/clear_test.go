package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clustermarket/internal/resource"
)

const testBids = `
bid "seller" limit -5 { r1/cpu:-10 }
bid "rich" limit 30 { r1/cpu:10 }
bid "poor" limit 12 { r1/cpu:10 }
`

func writeBids(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bids.txt")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClearSettlesAndVerifies(t *testing.T) {
	var out bytes.Buffer
	if err := clearBids(&out, nil, false, []string{writeBids(t, testBids)}); err != nil {
		t.Fatalf("clear: %v", err)
	}
	if !strings.Contains(out.String(), "SYSTEM constraints (1)-(6) verified.") {
		t.Errorf("no SYSTEM check in output:\n%s", out.String())
	}
}

func TestClearWithHistory(t *testing.T) {
	var out bytes.Buffer
	if err := clearBids(&out, strings.NewReader(testBids), true, nil); err != nil {
		t.Fatalf("clear with history from stdin: %v", err)
	}
	if !strings.Contains(out.String(), "t=0") {
		t.Errorf("no history in output:\n%s", out.String())
	}
}

func TestClearErrors(t *testing.T) {
	var out bytes.Buffer
	if err := clearBids(&out, nil, false, []string{"a", "b"}); err == nil {
		t.Error("two args accepted")
	}
	if err := clearBids(&out, nil, false, []string{"/no/such/file"}); err == nil {
		t.Error("missing file accepted")
	}
	bad := writeBids(t, "this is not a bid")
	if err := clearBids(&out, nil, false, []string{bad}); err == nil {
		t.Error("unparseable bids accepted")
	}
	// A cycling trader pair never converges: clear warns and prints the
	// partial result, and the SYSTEM check then decides the error.
	traders := writeBids(t, `
bid "t1" limit 100000 { all { x/cpu:2 y/cpu:-1 } }
bid "t2" limit 100000 { all { x/cpu:-1 y/cpu:2 } }
`)
	out.Reset()
	_ = clearBids(&out, nil, false, []string{traders})
	if !strings.Contains(out.String(), "note: traders present") {
		t.Errorf("no trader note in output:\n%s", out.String())
	}
}

func TestFmtVec(t *testing.T) {
	got := fmtVec(resource.Vector{1, 2.5})
	if !strings.Contains(got, "1.000") || !strings.Contains(got, "2.500") {
		t.Errorf("fmtVec = %q", got)
	}
}
