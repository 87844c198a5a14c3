package sched

import (
	"math/rand"
	"strconv"
	"testing"
)

// Key returns a canonical string signature of the assignment — the
// readable oracle KeyHash is tested against. It is suitable as a
// memoization key for schedule evaluation: ListSchedule is a pure function
// of (DFG, Assignment, machine.Config), so two assignments with equal Keys
// schedule to the same length on the same DFG and machine. The encoding is
// positional (one field per node, so node membership of every ISE group is
// captured) and canonicalizes group IDs by first appearance, making the key
// invariant under group renumbering. Hardware option indices are included
// because they select the cell latencies that determine the group's
// pipestage latency.
func (a Assignment) Key() string {
	buf := make([]byte, 0, 4*len(a))
	var gidBuf [remapInline]int
	gids := gidBuf[:0]
	for _, c := range a {
		switch c.Kind {
		case KindSW:
			buf = append(buf, 's')
			buf = strconv.AppendInt(buf, int64(c.Opt), 10)
		case KindHW:
			var g int
			gids, g = canonGroup(gids, c.Group)
			buf = append(buf, 'h')
			buf = strconv.AppendInt(buf, int64(c.Opt), 10)
			buf = append(buf, 'g')
			buf = strconv.AppendInt(buf, int64(g), 10)
		default:
			buf = append(buf, '?')
		}
		buf = append(buf, '.')
	}
	return string(buf)
}

func TestAssignmentKeyCanonicalGroups(t *testing.T) {
	// Two assignments that differ only in group numbering must share a key.
	a := Assignment{
		{Kind: KindHW, Opt: 0, Group: 7},
		{Kind: KindHW, Opt: 1, Group: 7},
		{Kind: KindSW, Opt: 0, Group: -1},
		{Kind: KindHW, Opt: 0, Group: 3},
	}
	b := Assignment{
		{Kind: KindHW, Opt: 0, Group: 0},
		{Kind: KindHW, Opt: 1, Group: 0},
		{Kind: KindSW, Opt: 0, Group: -1},
		{Kind: KindHW, Opt: 0, Group: 12},
	}
	if a.Key() != b.Key() {
		t.Fatalf("renumbered groups changed the key:\n%q\n%q", a.Key(), b.Key())
	}
}

func TestAssignmentKeyDistinguishes(t *testing.T) {
	base := Assignment{
		{Kind: KindHW, Opt: 0, Group: 0},
		{Kind: KindHW, Opt: 0, Group: 0},
		{Kind: KindSW, Opt: 0, Group: -1},
	}
	cases := map[string]Assignment{
		"different hw option": {
			{Kind: KindHW, Opt: 1, Group: 0},
			{Kind: KindHW, Opt: 0, Group: 0},
			{Kind: KindSW, Opt: 0, Group: -1},
		},
		"split groups": {
			{Kind: KindHW, Opt: 0, Group: 0},
			{Kind: KindHW, Opt: 0, Group: 1},
			{Kind: KindSW, Opt: 0, Group: -1},
		},
		"kind flip": {
			{Kind: KindHW, Opt: 0, Group: 0},
			{Kind: KindHW, Opt: 0, Group: 0},
			{Kind: KindHW, Opt: 0, Group: 0},
		},
		"different sw option": {
			{Kind: KindHW, Opt: 0, Group: 0},
			{Kind: KindHW, Opt: 0, Group: 0},
			{Kind: KindSW, Opt: 1, Group: -1},
		},
	}
	for name, a := range cases {
		if a.Key() == base.Key() {
			t.Errorf("%s: key collision %q", name, base.Key())
		}
	}
}

func TestAssignmentKeyIgnoresSWGroupField(t *testing.T) {
	// Software nodes carry no meaningful group; stray values must not split
	// the key space.
	a := Assignment{{Kind: KindSW, Opt: 0, Group: -1}}
	b := Assignment{{Kind: KindSW, Opt: 0, Group: 42}}
	if a.Key() != b.Key() {
		t.Fatalf("software group field leaked into the key: %q vs %q", a.Key(), b.Key())
	}
}

func TestAssignmentKeyMultiDigit(t *testing.T) {
	// Option/group indices ≥ 10 must not be ambiguous with concatenations
	// of smaller indices.
	a := Assignment{{Kind: KindSW, Opt: 12, Group: -1}}
	b := Assignment{{Kind: KindSW, Opt: 1, Group: -1}, {Kind: KindSW, Opt: 2, Group: -1}}
	if a.Key() == b.Key() {
		t.Fatalf("ambiguous encoding: %q", a.Key())
	}
}

func TestKeyHashCanonicalGroups(t *testing.T) {
	// KeyHash must share Key()'s canonicalization: group numbering is
	// irrelevant, only the partition and the options matter.
	a := Assignment{
		{Kind: KindHW, Opt: 0, Group: 7},
		{Kind: KindHW, Opt: 1, Group: 7},
		{Kind: KindSW, Opt: 0, Group: -1},
		{Kind: KindHW, Opt: 0, Group: 3},
	}
	b := Assignment{
		{Kind: KindHW, Opt: 0, Group: 0},
		{Kind: KindHW, Opt: 1, Group: 0},
		{Kind: KindSW, Opt: 0, Group: 12},
		{Kind: KindHW, Opt: 0, Group: 4},
	}
	if a.KeyHash() != b.KeyHash() {
		t.Fatalf("renumbered groups changed the hash: %x vs %x", a.KeyHash(), b.KeyHash())
	}
}

func TestKeyHashConsistentWithKey(t *testing.T) {
	// On a randomized corpus, hash equality must coincide exactly with
	// string-key equality: equal keys hash equal (correctness of the memo),
	// distinct keys hash distinct (no collisions in practice — two
	// independent 64-bit chains make an accidental one astronomically rare,
	// and any real one would fail this test deterministically).
	rng := rand.New(rand.NewSource(99))
	byKey := make(map[string][2]uint64)
	byHash := make(map[[2]uint64]string)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(12)
		a := make(Assignment, n)
		for i := range a {
			if rng.Intn(2) == 0 {
				a[i] = NodeChoice{Kind: KindSW, Opt: rng.Intn(3), Group: rng.Intn(5) - 1}
			} else {
				a[i] = NodeChoice{Kind: KindHW, Opt: rng.Intn(3), Group: rng.Intn(4)}
			}
		}
		key, h := a.Key(), a.KeyHash()
		if prev, ok := byKey[key]; ok && prev != h {
			t.Fatalf("same key %q hashed %x and %x", key, prev, h)
		}
		byKey[key] = h
		if prevKey, ok := byHash[h]; ok && prevKey != key {
			t.Fatalf("hash collision %x: keys %q and %q", h, prevKey, key)
		}
		byHash[h] = key
	}
}
