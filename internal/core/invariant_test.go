package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestCQOccupancyInvariant: Push refuses a full queue, and panics when it
// finds more CQEs than slots, which only a write behind its back can
// produce.
func TestCQOccupancyInvariant(t *testing.T) {
	q := NewCQ(CQOptimized, 2)
	if !q.Push(1) || !q.Push(2) || q.Push(3) {
		t.Fatal("a 2-slot CQ must take two CQEs and refuse the third")
	}
	q.pending = append(q.pending, 3)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "3 CQEs in 2 slots") {
			t.Fatalf("Push over an over-full CQ: recovered %v, want a panic giving occupancy and slots", r)
		}
	}()
	q.Push(4)
}
