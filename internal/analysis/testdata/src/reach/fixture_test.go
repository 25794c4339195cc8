package main

import "testing"

func TestKept(t *testing.T) {
	if kept() != 1 {
		t.Fatal("kept")
	}
}
