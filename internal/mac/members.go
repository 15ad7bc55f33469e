package mac

import (
	"cmp"
	"fmt"
	"slices"
)

// memberTable is a base station's association bookkeeping, shared by the
// TDMA (and CSMA) base station and the LPL receiver: which node holds
// which index (a TDMA slot, a contention membership), and how many
// consecutive sweeps each member has been silent.
type memberTable struct {
	byNode  map[uint8]int // node → index
	byIndex map[int]uint8 // index → node
	silent  map[uint8]int
	max     int     // admission cap: indices run 0..max-1
	noun    string  // what an index is called in audit details
	ids     []uint8 // sweep scratch
	gone    []member
}

// member is one (node, index) association.
type member struct {
	node uint8
	idx  int
}

func newMemberTable(max int, noun string) memberTable {
	return memberTable{
		byNode:  make(map[uint8]int),
		byIndex: make(map[int]uint8),
		silent:  make(map[uint8]int),
		max:     max,
		noun:    noun,
	}
}

// Nodes reports the associated node IDs in index order.
func (t *memberTable) Nodes() []uint8 {
	out := make([]uint8, 0, len(t.byIndex))
	for _, i := range sortedKeys(t.byIndex) {
		out = append(out, t.byIndex[i])
	}
	return out
}

// admit associates node with the lowest free index.
func (t *memberTable) admit(node uint8) int {
	idx := 0
	for {
		if _, used := t.byIndex[idx]; !used {
			break
		}
		idx++
	}
	t.byNode[node] = idx
	t.byIndex[idx] = node
	return idx
}

// release dissociates node, reporting the index it held.
func (t *memberTable) release(node uint8) (int, bool) {
	idx, ok := t.byNode[node]
	if !ok {
		return 0, false
	}
	delete(t.byNode, node)
	delete(t.byIndex, idx)
	delete(t.silent, node)
	return idx, true
}

// sweepSilent ages every member's silence counter and releases the
// members silent for after consecutive sweeps, returning them in node
// order. The result is scratch, valid until the next sweep.
func (t *memberTable) sweepSilent(after int) []member {
	gone := t.gone[:0]
	ids := t.ids[:0]
	for id := range t.byNode {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	t.ids = ids
	for _, id := range ids {
		t.silent[id]++
		if t.silent[id] < after {
			continue
		}
		idx, _ := t.release(id)
		gone = append(gone, member{node: id, idx: idx})
	}
	t.gone = gone
	return gone
}

// audit checks the table's invariants and returns a detail string per
// broken law: the two maps are inverse bijections and every index is
// inside the admission cap. A violation means a join, release or
// reclaim path granted an index twice or left the maps out of step.
func (t *memberTable) audit() []string {
	var v []string
	if len(t.byNode) != len(t.byIndex) {
		v = append(v, fmt.Sprintf("%s maps out of step: %d nodes, %d %ss",
			t.noun, len(t.byNode), len(t.byIndex), t.noun))
	}
	for _, id := range sortedKeys(t.byNode) {
		idx := t.byNode[id]
		if idx < 0 || idx >= t.max {
			v = append(v, fmt.Sprintf("node %d holds out-of-range %s %d (max %d)",
				id, t.noun, idx, t.max))
			continue
		}
		if holder, ok := t.byIndex[idx]; !ok || holder != id {
			v = append(v, fmt.Sprintf("%s %d granted to node %d but the %s map names node %d",
				t.noun, idx, id, t.noun, holder))
		}
	}
	for _, i := range sortedKeys(t.byIndex) {
		id := t.byIndex[i]
		if back, ok := t.byNode[id]; !ok || back != i {
			v = append(v, fmt.Sprintf("%s %d names node %d but the node map points at %s %d",
				t.noun, i, id, t.noun, back))
		}
	}
	return v
}

// sortedKeys lists a map's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
