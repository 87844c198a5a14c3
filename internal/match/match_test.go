package match

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/dfg"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/randprog"
)

// findReference is the original map-based matcher, kept as the differential
// oracle for find: it keeps the partial mapping in a map and checks every
// candidate against each mapped pair with Graph.HasEdge. find must return
// the same mapping sequence and the same exhausted flag for every input.
func findReference(pd *dfg.DFG, pNodes graph.NodeSet, td *dfg.DFG, maxMatches, limit int) ([]Mapping, bool) {
	pids := pNodes.Values()
	if len(pids) == 0 {
		return nil, false
	}
	// Candidate lists per pattern node, by opcode.
	cands := make(map[int][]int, len(pids))
	for _, p := range pids {
		op := pd.Nodes[p].Instr.Op
		var cs []int
		for t := 0; t < td.Len(); t++ {
			if td.Nodes[t].Instr.Op == op && td.Nodes[t].ISEEligible() {
				cs = append(cs, t)
			}
		}
		if len(cs) == 0 {
			return nil, false
		}
		cands[p] = cs
	}
	// Order pattern nodes most-constrained first: fewest candidates, then
	// most internal adjacency.
	order := append([]int(nil), pids...)
	adj := func(p int) int {
		n := 0
		for _, q := range pd.Data.Succs(p) {
			if pNodes.Contains(q) {
				n++
			}
		}
		for _, q := range pd.Data.Preds(p) {
			if pNodes.Contains(q) {
				n++
			}
		}
		return n
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if len(cands[a]) != len(cands[b]) {
			return len(cands[a]) < len(cands[b])
		}
		if adj(a) != adj(b) {
			return adj(a) > adj(b)
		}
		return a < b
	})

	s := &refSearcher{
		pd: pd, td: td, pNodes: pNodes,
		order: order, cands: cands,
		mapping: Mapping{}, usedT: map[int]bool{},
		max: maxMatches, budget: limit,
	}
	s.search(0)
	return s.found, s.exhausted
}

type refSearcher struct {
	pd, td    *dfg.DFG
	pNodes    graph.NodeSet
	order     []int
	cands     map[int][]int
	mapping   Mapping
	usedT     map[int]bool
	found     []Mapping
	max       int
	budget    int
	exhausted bool
}

func (s *refSearcher) search(depth int) bool {
	if s.budget <= 0 {
		s.exhausted = true
		return true // out of budget: stop the whole search
	}
	s.budget--
	if depth == len(s.order) {
		m := make(Mapping, len(s.mapping))
		for k, v := range s.mapping {
			m[k] = v
		}
		s.found = append(s.found, m)
		return s.max > 0 && len(s.found) >= s.max
	}
	p := s.order[depth]
	for _, t := range s.cands[p] {
		if s.usedT[t] || !s.consistent(p, t) {
			continue
		}
		s.mapping[p] = t
		s.usedT[t] = true
		stop := s.search(depth + 1)
		delete(s.mapping, p)
		delete(s.usedT, t)
		if stop {
			return true
		}
	}
	return false
}

// consistent checks that assigning pattern node p to target node t preserves
// the induced dataflow edges against every already-mapped pattern node.
func (s *refSearcher) consistent(p, t int) bool {
	for q, u := range s.mapping {
		pq := s.pd.Data.HasEdge(p, q)
		qp := s.pd.Data.HasEdge(q, p)
		tu := s.td.Data.HasEdge(t, u)
		ut := s.td.Data.HasEdge(u, t)
		if pq != tu || qp != ut {
			return false
		}
	}
	return true
}

// assertSameAsReference runs find and findReference on one input and fails
// unless both return the same mapping sequence and exhausted flag.
func assertSameAsReference(t *testing.T, label string, pd *dfg.DFG, pat graph.NodeSet, td *dfg.DFG, maxMatches, limit int) {
	t.Helper()
	got, gotEx := find(pd, pat, td, maxMatches, limit)
	want, wantEx := findReference(pd, pat, td, maxMatches, limit)
	if gotEx != wantEx {
		t.Fatalf("%s: exhausted = %v, reference %v", label, gotEx, wantEx)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d mappings, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if !maps.Equal(got[i], want[i]) {
			t.Fatalf("%s: mapping %d = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// randomPattern picks up to size ISE-eligible nodes of d. Three times in
// four it grows a connected set over Data edges taken in either direction;
// otherwise it picks nodes regardless of edges, which gives patterns whose
// candidates often carry extra target edges the match must reject.
func randomPattern(r *rand.Rand, d *dfg.DFG, size int) graph.NodeSet {
	set := graph.NewNodeSet(d.Len())
	var elig []int
	for _, n := range d.Nodes {
		if n.ISEEligible() {
			elig = append(elig, n.ID)
		}
	}
	if len(elig) == 0 {
		return set
	}
	set.Add(elig[r.Intn(len(elig))])
	if r.Intn(4) == 0 {
		for i := 1; i < size; i++ {
			set.Add(elig[r.Intn(len(elig))])
		}
		return set
	}
	for set.Len() < size {
		var frontier []int
		for _, v := range set.Values() {
			for _, u := range slices.Concat(d.Data.Succs(v), d.Data.Preds(v)) {
				if !set.Contains(u) && d.Nodes[u].ISEEligible() && !slices.Contains(frontier, u) {
					frontier = append(frontier, u)
				}
			}
		}
		if len(frontier) == 0 {
			break
		}
		set.Add(frontier[r.Intn(len(frontier))])
	}
	return set
}

// kernelDFG is one executed basic block of a bench kernel.
type kernelDFG struct {
	kernel, block string
	d             *dfg.DFG
}

// kernelDFGs builds the DFG of every executed block of every bench kernel
// at both optimization levels, once per test binary.
var kernelDFGs = sync.OnceValues(func() ([]kernelDFG, error) {
	var out []kernelDFG
	for _, bm := range bench.All() {
		prof, err := bm.Run()
		if err != nil {
			return nil, err
		}
		var blocks []int
		for bi, c := range prof.BlockCounts {
			if c > 0 {
				blocks = append(blocks, bi)
			}
		}
		for i, d := range dfg.BuildAll(bm.Prog, blocks, prof.BlockCounts) {
			out = append(out, kernelDFG{bm.FullName(), bm.Prog.Blocks[blocks[i]].Name(), d})
		}
	}
	return out, nil
})

// kernelBlock returns the DFG of one named executed block.
func kernelBlock(t *testing.T, kernel, block string) *dfg.DFG {
	t.Helper()
	ks, err := kernelDFGs()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if k.kernel == kernel && k.block == block {
			return k.d
		}
	}
	t.Fatalf("no executed block %s in %s", block, kernel)
	return nil
}

// span returns the node set {lo, ..., hi} plus extra.
func span(d *dfg.DFG, lo, hi int, extra ...int) graph.NodeSet {
	s := graph.NodeSetOf(d.Len(), extra...)
	for v := lo; v <= hi; v++ {
		s.Add(v)
	}
	return s
}

// smallLimits are state budgets that cut most searches early, so the
// truncation path is compared cheaply.
var smallLimits = []int{1, 2, 3, 5, 10, 40, 150, 500}

// TestFindMatchesReferenceOnKernels compares find with findReference on
// random patterns from every executed block of every bench kernel,
// matched into their own block and into the next executed block, under
// small state budgets and a spread of match caps.
func TestFindMatchesReferenceOnKernels(t *testing.T) {
	ks, err := kernelDFGs()
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	caps := []int{0, 1, 2, 64}
	for i, k := range ks {
		next := ks[(i+1)%len(ks)]
		for j := 0; j < 4; j++ {
			pat := randomPattern(r, k.d, 1+r.Intn(8))
			limit := smallLimits[r.Intn(len(smallLimits))]
			maxM := caps[r.Intn(len(caps))]
			label := fmt.Sprintf("%s/%s pattern %v cap %d limit %d", k.kernel, k.block, pat.Values(), maxM, limit)
			assertSameAsReference(t, label+" self", k.d, pat, k.d, maxM, limit)
			assertSameAsReference(t, label+" into "+next.kernel+"/"+next.block, k.d, pat, next.d, maxM, limit)
		}
	}
}

// hotPatterns are ISE patterns the -fast evaluation matrix matched in the
// adpcm-O3 and crc32-O3 hot loops, each of which ran out of DefaultLimit
// there (replace's cap is 64, merging's is 0). fullBudget marks the ones
// also compared at DefaultLimit: there the crc32 replacement search stalls
// after 6 mappings and the adpcm merging search finds none.
var hotPatterns = []struct {
	kernel, block string
	lo, hi        int
	extra         []int
	maxMatches    int
	fullBudget    bool
}{
	{"crc32/O3", "byte_loop", 1, 15, nil, 64, true},
	{"crc32/O3", "byte_loop", 14, 27, nil, 0, false},
	{"adpcm/O3", "sample_loop", 4, 25, nil, 64, false},
	{"adpcm/O3", "sample_loop", 58, 79, nil, 64, false},
	{"adpcm/O3", "sample_loop", 96, 106, []int{47, 48, 49, 50, 51, 52, 55, 56}, 0, true},
}

// TestFindMatchesReferenceOnHotPatterns compares find with findReference on
// the hot-loop patterns that exhaust the search budget in the evaluation
// matrix, at small limits and, where marked, at DefaultLimit.
func TestFindMatchesReferenceOnHotPatterns(t *testing.T) {
	for _, hp := range hotPatterns {
		d := kernelBlock(t, hp.kernel, hp.block)
		pat := span(d, hp.lo, hp.hi, hp.extra...)
		limits := smallLimits
		if hp.fullBudget {
			limits = append(slices.Clone(smallLimits), DefaultLimit)
		}
		for _, limit := range limits {
			label := fmt.Sprintf("%s/%s pattern %v cap %d limit %d", hp.kernel, hp.block, pat.Values(), hp.maxMatches, limit)
			assertSameAsReference(t, label, d, pat, d, hp.maxMatches, limit)
		}
	}
}

// TestFindMatchesReferenceOnRandprog repeats the differential comparison on
// random blocks, self and cross-DFG.
func TestFindMatchesReferenceOnRandprog(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := randprog.Config{Ops: 40, MemFrac: 0.15, MultFrac: 0.05}
	prev := randprog.DFG(r, cfg)
	for i := 0; i < 150; i++ {
		cfg.Ops = 5 + r.Intn(70)
		d := randprog.DFG(r, cfg)
		pat := randomPattern(r, d, 1+r.Intn(7))
		limit := smallLimits[r.Intn(len(smallLimits))]
		if i%10 == 0 {
			limit = 20000
		}
		maxM := r.Intn(4)
		label := fmt.Sprintf("randprog #%d pattern %v cap %d limit %d", i, pat.Values(), maxM, limit)
		assertSameAsReference(t, label+" self", d, pat, d, maxM, limit)
		assertSameAsReference(t, label+" cross", d, pat, prev, maxM, limit)
		prev = d
	}
}

// FuzzFind checks find against findReference on random blocks: the pattern
// is a random subset of one block (see randomPattern), matched into itself
// or a second block.
func FuzzFind(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(10*seed), uint8(seed), uint8(seed%3), uint16(100*seed), seed%2 == 0)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops, size, maxM uint8, limit uint16, cross bool) {
		r := rand.New(rand.NewSource(seed))
		cfg := randprog.Config{Ops: 1 + int(ops)%80, MemFrac: 0.15, MultFrac: 0.05}
		pd := randprog.DFG(r, cfg)
		td := pd
		if cross {
			td = randprog.DFG(r, cfg)
		}
		pat := randomPattern(r, pd, 1+int(size)%10)
		assertSameAsReference(t, "fuzz", pd, pat, td, int(maxM)%5, 1+int(limit)%5000)
	})
}

// TestSearchSteadyStateAllocs pins the zero-allocation contract of a warm
// pooled searcher: once its arenas fit the DFG and pattern, preparing and
// running a whole search — budget cut included — allocates nothing; only
// find's final Mapping construction does.
func TestSearchSteadyStateAllocs(t *testing.T) {
	d := kernelBlock(t, "crc32/O3", "byte_loop")
	pat := span(d, 1, 15)
	s := new(searcher)
	search := func() {
		if !s.prepare(d, pat, d, 64, 5000) {
			t.Fatal("pattern has no candidates")
		}
		s.run()
	}
	search()
	if s.nFound == 0 || !s.exhausted {
		t.Fatalf("warm-up search found %d mappings, exhausted %v; want a truncated search with matches", s.nFound, s.exhausted)
	}
	if allocs := testing.AllocsPerRun(20, search); allocs != 0 {
		t.Fatalf("steady-state search allocates %v/op, want 0", allocs)
	}
}

func blockDFG(t *testing.T, emit func(b *prog.Builder)) *dfg.DFG {
	t.Helper()
	b := prog.NewBuilder("t")
	emit(b)
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lv := prog.ComputeLiveness(p)
	return dfg.Build(p, 0, 1, lv.LiveOut[0])
}

// crcStep emits the and/sub/srl/and/xor CRC bit-step once per call.
func crcStep(b *prog.Builder, crc, poly prog.Reg) {
	b.I(isa.OpANDI, prog.T1, crc, 1)
	b.R(isa.OpSUB, prog.T2, prog.Zero, prog.T1)
	b.I(isa.OpSRL, prog.T3, crc, 1)
	b.R(isa.OpAND, prog.T2, poly, prog.T2)
	b.R(isa.OpXOR, crc, prog.T3, prog.T2)
}

func TestFindSelfMatch(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1)
	ms := Find(d, pat, d, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1 (self)", len(ms))
	}
	if ms[0][0] != 0 || ms[0][1] != 1 {
		t.Fatalf("mapping %v", ms[0])
	}
}

func TestFindRepeatedPattern(t *testing.T) {
	// The CRC bit-step appears 4 times in an unrolled block; the pattern
	// from the first instance must match all four.
	d := blockDFG(t, func(b *prog.Builder) {
		for i := 0; i < 4; i++ {
			crcStep(b, prog.S3, prog.S2)
		}
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1, 2, 3, 4)
	ms := Find(d, pat, d, 0)
	if len(ms) != 4 {
		t.Fatalf("got %d matches, want 4", len(ms))
	}
	// Matches must be vertical copies: each maps the 5 pattern nodes onto a
	// contiguous 5-node instance.
	seen := map[int]bool{}
	for _, m := range ms {
		base := m[0] // instance offset of the andi node
		if base%5 != 0 {
			t.Errorf("instance base %d not aligned", base)
		}
		if seen[base] {
			t.Errorf("duplicate instance at %d", base)
		}
		seen[base] = true
		for p, tgt := range m {
			if tgt != base+p {
				t.Errorf("node %d mapped to %d, want %d", p, tgt, base+p)
			}
		}
	}
}

func TestFindRespectsOpcodes(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0) // pattern: add->xor
		b.R(isa.OpADD, prog.T2, prog.A2, prog.A3)
		b.R(isa.OpOR, prog.T3, prog.T2, prog.A2) // decoy: add->or
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1)
	ms := Find(d, pat, d, 0)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1 (or-decoy must not match)", len(ms))
	}
}

func TestFindRequiresInducedEdges(t *testing.T) {
	// Pattern: two independent adds. A dependent add pair must not match.
	d := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1) // n0
		b.R(isa.OpADD, prog.T1, prog.A2, prog.A3) // n1 independent of n0
		b.R(isa.OpADD, prog.T2, prog.A0, prog.A1) // n2
		b.R(isa.OpADD, prog.T3, prog.T2, prog.A3) // n3 depends on n2
	})
	pat := graph.NodeSetOf(d.Len(), 0, 1)
	for _, m := range Find(d, pat, d, 0) {
		a, b := m[0], m[1]
		if d.Data.HasEdge(a, b) || d.Data.HasEdge(b, a) {
			t.Errorf("independent pattern matched dependent nodes %d,%d", a, b)
		}
	}
	// Pattern: the dependent pair. It must match only {2,3}.
	dep := graph.NodeSetOf(d.Len(), 2, 3)
	ms := Find(d, dep, d, 0)
	if len(ms) != 1 || ms[0][2] != 2 || ms[0][3] != 3 {
		t.Fatalf("dependent pattern matches = %v", ms)
	}
}

func TestFindMaxMatches(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		for i := 0; i < 6; i++ {
			b.R(isa.OpADD, prog.T0+prog.Reg(i), prog.A0, prog.A1)
		}
	})
	pat := graph.NodeSetOf(d.Len(), 0)
	ms := Find(d, pat, d, 2)
	if len(ms) != 2 {
		t.Fatalf("maxMatches ignored: %d", len(ms))
	}
}

func TestFindCrossDFG(t *testing.T) {
	pd := blockDFG(t, func(b *prog.Builder) {
		crcStep(b, prog.S3, prog.S2)
	})
	td := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T5, prog.A0, prog.A1) // noise
		crcStep(b, prog.S4, prog.S5)              // the instance
		b.R(isa.OpOR, prog.T6, prog.T5, prog.A0)  // noise
	})
	pat := graph.NodeSetOf(pd.Len(), 0, 1, 2, 3, 4)
	ms := Find(pd, pat, td, 0)
	if len(ms) != 1 {
		t.Fatalf("cross-DFG matches = %d, want 1", len(ms))
	}
}

func TestFindNoCandidates(t *testing.T) {
	pd := blockDFG(t, func(b *prog.Builder) {
		b.Mult(isa.OpMULT, prog.A0, prog.A1)
	})
	td := blockDFG(t, func(b *prog.Builder) {
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
	})
	if ms := Find(pd, graph.NodeSetOf(pd.Len(), 0), td, 0); ms != nil {
		t.Fatalf("matches without candidates: %v", ms)
	}
	if ms := Find(pd, graph.NewNodeSet(pd.Len()), td, 0); ms != nil {
		t.Fatalf("matches for empty pattern: %v", ms)
	}
}

func TestMappingHelpers(t *testing.T) {
	m := Mapping{0: 5, 1: 7}
	ts := m.Targets(10)
	if !ts.Contains(5) || !ts.Contains(7) || ts.Len() != 2 {
		t.Fatalf("Targets = %v", ts)
	}
	if !m.Overlaps(graph.NodeSetOf(10, 7)) {
		t.Error("Overlaps false negative")
	}
	if m.Overlaps(graph.NodeSetOf(10, 6)) {
		t.Error("Overlaps false positive")
	}
}

func TestCanonicalDistinguishesStructure(t *testing.T) {
	d := blockDFG(t, func(b *prog.Builder) {
		// chain add->xor
		b.R(isa.OpADD, prog.T0, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T1, prog.T0, prog.A0)
		// independent add, xor
		b.R(isa.OpADD, prog.T2, prog.A2, prog.A3)
		b.R(isa.OpXOR, prog.T3, prog.A2, prog.A3)
		// another chain add->xor (identical to first)
		b.R(isa.OpADD, prog.T4, prog.A0, prog.A1)
		b.R(isa.OpXOR, prog.T5, prog.T4, prog.A0)
	})
	chain1 := Canonical(d, graph.NodeSetOf(d.Len(), 0, 1))
	indep := Canonical(d, graph.NodeSetOf(d.Len(), 2, 3))
	chain2 := Canonical(d, graph.NodeSetOf(d.Len(), 4, 5))
	if chain1 != chain2 {
		t.Error("identical structures hash differently")
	}
	if chain1 == indep {
		t.Error("chain and independent pair hash identically")
	}
}
