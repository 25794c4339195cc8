package clustermarket_test

import (
	"os"
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
