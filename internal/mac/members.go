package mac

import (
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
	max     int    // admission cap: indices run 0..max-1
	noun    string // what an index is called in audit details
	// Sort and sweep scratch, reused so the sweeps allocate nothing.
	ids  []uint8
	idxs []int
	gone []member
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
	for _, i := range t.sortedIndices() {
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
	for _, id := range t.sortedNodes() {
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
	for _, id := range t.sortedNodes() {
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
	for _, i := range t.sortedIndices() {
		id := t.byIndex[i]
		if back, ok := t.byNode[id]; !ok || back != i {
			v = append(v, fmt.Sprintf("%s %d names node %d but the node map points at %s %d",
				t.noun, i, id, t.noun, back))
		}
	}
	return v
}

// sortedNodes lists the members in ascending node order, in scratch
// valid until the next call.
func (t *memberTable) sortedNodes() []uint8 {
	t.ids = t.ids[:0]
	for id := range t.byNode {
		t.ids = append(t.ids, id)
	}
	slices.Sort(t.ids)
	return t.ids
}

// sortedIndices lists the held indices in ascending order, in scratch
// valid until the next call.
func (t *memberTable) sortedIndices() []int {
	t.idxs = t.idxs[:0]
	for i := range t.byIndex {
		t.idxs = append(t.idxs, i)
	}
	slices.Sort(t.idxs)
	return t.idxs
}
