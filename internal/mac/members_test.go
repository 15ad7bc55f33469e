package mac

import (
	"reflect"
	"strings"
	"testing"
)

// TestMemberTable exercises the base stations' association bookkeeping
// directly: lowest-free admission, release, the silence sweep and the
// bijection and range audit.
func TestMemberTable(t *testing.T) {
	tb := newMemberTable(3, "member")
	for i, node := range []uint8{7, 3, 9} {
		if idx := tb.admit(node); idx != i {
			t.Fatalf("node %d admitted at %d, want %d", node, idx, i)
		}
	}
	if idx, ok := tb.release(3); !ok || idx != 1 {
		t.Fatalf("release(3) = %d, %v; want 1, true", idx, ok)
	}
	if _, ok := tb.release(3); ok {
		t.Fatal("second release of node 3 succeeded")
	}
	if idx := tb.admit(5); idx != 1 {
		t.Fatalf("node 5 admitted at %d, want the freed index 1", idx)
	}
	if got, want := tb.Nodes(), []uint8{7, 5, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Nodes() = %v, want %v", got, want)
	}
	if v := tb.audit(); len(v) != 0 {
		t.Fatalf("consistent table flagged: %v", v)
	}

	// Node 9 is heard every sweep; the others go silent and are released
	// on the second sweep, in node order.
	if gone := tb.sweepSilent(2); len(gone) != 0 {
		t.Fatalf("first sweep released %v", gone)
	}
	delete(tb.silent, 9)
	gone := tb.sweepSilent(2)
	if want := []member{{node: 5, idx: 1}, {node: 7, idx: 0}}; !reflect.DeepEqual(gone, want) {
		t.Fatalf("second sweep released %v, want %v", gone, want)
	}
	if got := tb.Nodes(); !reflect.DeepEqual(got, []uint8{9}) {
		t.Fatalf("Nodes() after the sweep = %v, want [9]", got)
	}

	tb.byNode[9] = 4 // out of range, and the index map disagrees
	v := strings.Join(tb.audit(), "; ")
	for _, want := range []string{"out-of-range member 4", "member 2 names node 9 but the node map points at member 4"} {
		if !strings.Contains(v, want) {
			t.Fatalf("audit missed %q: %s", want, v)
		}
	}
	tb.byIndex[0] = 9
	if v := strings.Join(tb.audit(), "; "); !strings.Contains(v, "member maps out of step") {
		t.Fatalf("audit missed the size mismatch: %s", v)
	}
}
