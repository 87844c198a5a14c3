// Package match implements labeled subgraph isomorphism over dataflow
// graphs. Both ISE merging (is candidate B a subgraph of candidate A?) and
// ISE replacement (where else in the program does a selected ISE's pattern
// occur?) reduce to this search. Patterns are node subsets of a DFG labeled
// by opcode; a match is an injective mapping preserving labels and inducing
// exactly the pattern's internal dataflow edges.
package match

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/dfg"
	"repro/internal/graph"
)

// Mapping maps pattern node IDs to target node IDs.
type Mapping map[int]int

// DefaultLimit bounds the number of search states explored per Find call;
// pathological patterns give up rather than stall the flow.
const DefaultLimit = 200000

// Find returns up to maxMatches injective mappings of the pattern subset
// pNodes of pd onto nodes of td such that opcodes agree and the induced
// dataflow edges are identical. Candidate target nodes are restricted to
// ISE-eligible operations. maxMatches <= 0 means unlimited.
func Find(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches int) []Mapping {
	ms, _ := find(pd, pNodes, td, maxMatches, DefaultLimit)
	return ms
}

// searchers pools search state across Find calls.
var searchers = sync.Pool{New: func() any { return new(searcher) }}

// find is Find with an explicit state budget. exhausted reports that the
// budget ran out, so the search was cut before it finished.
func find(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) (ms []Mapping, exhausted bool) {
	s := searchers.Get().(*searcher)
	defer searchers.Put(s)
	if !s.prepare(pd, pNodes, td, maxMatches, limit) {
		return nil, false
	}
	s.run()
	s.rows = nil // a pooled searcher must not keep td alive
	n := len(s.order)
	if s.nFound > 0 {
		ms = make([]Mapping, 0, s.nFound)
	}
	for i := 0; i < len(s.found); i += n {
		m := make(Mapping, n)
		for d, p := range s.order {
			m[p] = s.found[i+d]
		}
		ms = append(ms, m)
	}
	return ms, s.exhausted
}

// searcher is one depth-first search over pattern positions. Depth d maps
// pattern node order[d]; every per-node table is indexed by depth, and
// target-node sets are bitmaps in td's DataRows word layout.
//
// The search visits the same states in the same order as a search that
// keeps the partial mapping in a map and tries each candidate of an
// ascending candidate list against every mapped pair: the order, the
// candidate sets and the budget (one unit per recursion entry) are the same,
// candidates are tried in ascending target ID, and the acceptance test is
// equivalent. Let p = order[d] and U = used, the targets of depths 0..d-1.
// The pair test accepts t ∉ U iff, for every earlier depth q with
// u = tAt[q]: p→q iff t→u, and q→p iff u→t. Because the mapping is
// injective, each u in U names exactly one q, so the test is that
// succRow(t)∩U equals {tAt[q] : p→q} (expS) and predRow(t)∩U equals
// {tAt[q] : q→p} (expP), compared word by word. Every accepted t is a
// predecessor of each u in expS and a successor of each u in expP, so
// search first narrows the candidates to those rows; that skips only
// candidates the test rejects.
type searcher struct {
	rows  *dfg.BitRows // td's Data adjacency
	order []int        // pattern node at each depth
	// succPos[succOff[d]:succOff[d+1]] are the depths q < d with
	// order[d]→order[q]; predPos likewise with order[q]→order[d].
	succOff, succPos []int
	predOff, predPos []int
	nCand            []int    // candidate count of each pattern node
	pos              []int    // depth of each pattern node, -1 outside it
	tAt              []int    // target mapped at each depth
	used             []uint64 // targets mapped at depths above the current one
	// sets holds four bitmaps per depth d at [4d*w, (4d+4)*w): the
	// candidates, expS, expP and the candidates still open at d.
	sets        []uint64
	found       []int // len(order) targets per recorded match
	nFound, max int
	budget      int
	exhausted   bool
}

// prepare builds the depth-indexed tables for one search. It reports false
// when the pattern is empty or some pattern node has no candidate.
func (s *searcher) prepare(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) bool {
	s.order = pNodes.AppendValues(s.order[:0])
	n := len(s.order)
	if n == 0 {
		return false
	}
	s.max, s.budget = maxMatches, limit
	// Candidate counts per pattern node, by opcode.
	s.nCand = growInts(s.nCand, pd.Len())
	for _, p := range s.order {
		c := 0
		for t := 0; t < td.Len(); t++ {
			if candidate(pd, p, td, t) {
				c++
			}
		}
		if c == 0 {
			return false
		}
		s.nCand[p] = c
	}
	// Order pattern nodes most-constrained first: fewest candidates, then
	// most internal adjacency.
	adj := func(p int) int {
		k := 0
		for _, q := range pd.Data.Succs(p) {
			if pNodes.Contains(q) {
				k++
			}
		}
		for _, q := range pd.Data.Preds(p) {
			if pNodes.Contains(q) {
				k++
			}
		}
		return k
	}
	slices.SortFunc(s.order, func(a, b int) int {
		if s.nCand[a] != s.nCand[b] {
			return s.nCand[a] - s.nCand[b]
		}
		if adj(a) != adj(b) {
			return adj(b) - adj(a)
		}
		return a - b
	})
	s.pos = growInts(s.pos, pd.Len())
	for i := range s.pos {
		s.pos[i] = -1
	}
	for d, p := range s.order {
		s.pos[p] = d
	}
	s.rows = td.DataRows()
	w := s.rows.Words
	s.sets = growWords(s.sets, 4*n*w)
	clear(s.sets)
	s.succOff = growInts(s.succOff, n+1)[:1]
	s.predOff = growInts(s.predOff, n+1)[:1]
	s.succPos, s.predPos = s.succPos[:0], s.predPos[:0]
	for d, p := range s.order {
		cands := s.sets[4*d*w : (4*d+1)*w]
		for t := 0; t < td.Len(); t++ {
			if candidate(pd, p, td, t) {
				cands[t/64] |= 1 << (t % 64)
			}
		}
		for _, q := range pd.Data.Succs(p) {
			if e := s.pos[q]; e >= 0 && e < d {
				s.succPos = append(s.succPos, e)
			}
		}
		for _, q := range pd.Data.Preds(p) {
			if e := s.pos[q]; e >= 0 && e < d {
				s.predPos = append(s.predPos, e)
			}
		}
		s.succOff = append(s.succOff, len(s.succPos))
		s.predOff = append(s.predOff, len(s.predPos))
	}
	s.tAt = growInts(s.tAt, n)
	s.used = growWords(s.used, w)
	return true
}

// candidate reports whether target node t may stand for pattern node p:
// same opcode, and ISE-eligible.
func candidate(pd *dfg.DFG, p int, td *dfg.DFG, t int) bool {
	return td.Nodes[t].Instr.Op == pd.Nodes[p].Instr.Op && td.Nodes[t].ISEEligible()
}

// run searches from the root with the budget and match cap prepare set.
func (s *searcher) run() {
	clear(s.used)
	s.found, s.nFound, s.exhausted = s.found[:0], 0, false
	s.search(0)
}

// search extends the partial mapping of depths 0..depth-1 and reports
// whether the whole search must stop (budget spent or match cap reached).
//
//alloc:free
func (s *searcher) search(depth int) bool {
	if s.budget <= 0 {
		s.exhausted = true
		return true // out of budget: stop the whole search
	}
	s.budget--
	if depth == len(s.order) {
		s.found = appendInts(s.found, s.tAt)
		s.nFound++
		return s.max > 0 && s.nFound >= s.max
	}
	w := s.rows.Words
	set := s.sets[4*depth*w : (4*depth+4)*w]
	cands, expS, expP, open := set[:w], set[w:2*w], set[2*w:3*w], set[3*w:]
	for i := range open {
		open[i] = cands[i] &^ s.used[i]
		expS[i], expP[i] = 0, 0
	}
	for _, q := range s.succPos[s.succOff[depth]:s.succOff[depth+1]] {
		u := s.tAt[q]
		expS[u/64] |= 1 << (u % 64)
		for i, r := range s.rows.PredRow(u) {
			open[i] &= r
		}
	}
	for _, q := range s.predPos[s.predOff[depth]:s.predOff[depth+1]] {
		u := s.tAt[q]
		expP[u/64] |= 1 << (u % 64)
		for i, r := range s.rows.SuccRow(u) {
			open[i] &= r
		}
	}
	for i := range open {
		for word := open[i]; word != 0; word &= word - 1 {
			t := i*64 + bits.TrailingZeros64(word)
			if !s.consistent(t, expS, expP) {
				continue
			}
			bit := word & -word
			s.tAt[depth] = t
			s.used[i] |= bit
			stop := s.search(depth + 1)
			s.used[i] &^= bit
			if stop {
				return true
			}
		}
	}
	return false
}

// consistent reports whether target t's mapped neighbours are exactly the
// expected ones: its successors among the used targets are expS and its
// predecessors among them are expP (see searcher).
func (s *searcher) consistent(t int, expS, expP []uint64) bool {
	succ, pred := s.rows.SuccRow(t), s.rows.PredRow(t)
	for i, u := range s.used {
		if succ[i]&u != expS[i] || pred[i]&u != expP[i] {
			return false
		}
	}
	return true
}

// growInts returns buf resized to n, reusing its backing array when large
// enough. Contents are unspecified.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// growWords is growInts for bitmap words.
func growWords(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// appendInts appends vs to buf.
//
//alloc:amortized match record; grows only while a pooled searcher warms up to the largest match list
func appendInts(buf, vs []int) []int { return append(buf, vs...) }

// Targets returns the target node set of a mapping.
func (m Mapping) Targets(capacity int) graph.NodeSet {
	s := graph.NewNodeSet(capacity)
	for _, t := range m {
		s.Add(t)
	}
	return s
}

// Overlaps reports whether the mapping's targets intersect the given set.
func (m Mapping) Overlaps(s graph.NodeSet) bool {
	for _, t := range m {
		if s.Contains(t) {
			return true
		}
	}
	return false
}

// Canonical returns a structural fingerprint of the pattern subset: opcodes
// plus iterated neighborhood refinement (Weisfeiler-Leman style, 3 rounds,
// restricted to internal dataflow edges), sorted. Two ISE datapaths with
// equal fingerprints are treated as identical hardware for sharing purposes.
func Canonical(d *dfg.DFG, nodes graph.NodeSet) string {
	ids := nodes.Values()
	label := make(map[int]string, len(ids))
	for _, v := range ids {
		label[v] = d.Nodes[v].Instr.Op.String()
	}
	for round := 0; round < 3; round++ {
		next := make(map[int]string, len(ids))
		for _, v := range ids {
			var ins, outs []string
			for _, p := range d.Data.Preds(v) {
				if nodes.Contains(p) {
					ins = append(ins, label[p])
				}
			}
			for _, q := range d.Data.Succs(v) {
				if nodes.Contains(q) {
					outs = append(outs, label[q])
				}
			}
			sort.Strings(ins)
			sort.Strings(outs)
			next[v] = fmt.Sprintf("%s(%s|%s)", label[v], strings.Join(ins, ","), strings.Join(outs, ","))
		}
		label = next
	}
	all := make([]string, 0, len(ids))
	for _, v := range ids {
		all = append(all, label[v])
	}
	sort.Strings(all)
	return strings.Join(all, ";")
}
