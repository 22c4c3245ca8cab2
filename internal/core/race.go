package core

import (
	"slices"

	"subgraphmatching/internal/candspace"
	"subgraphmatching/internal/enumerate"
	"subgraphmatching/internal/graph"
	"subgraphmatching/internal/order"
)

// The order race (ROADMAP item 11(b, c)). The paper's spectrum analysis
// (Figure 14, Table 6) finds that no ordering method dominates, and a
// cached plan serves the same query again and again, so it can afford
// to find out which order is cheapest for it. RaceOrders counts the
// plan's query under the incumbent order and under each static order of
// raceOrders, all over the plan's own candidate sets, with no filter,
// and keeps the one that searched the fewest nodes. The counts are the
// embeddings up to the limit, which every order finds alike; only the
// nodes, and so the time, differ.
//
// An alternative order is counted with Direct local candidates kept
// within the plan's candidate sets (enumerate.Options.Within, C(u) as
// bitmaps from the data graph's pool), which need no 𝒜: that LC(u) is
// C(u) ∩ N(M(u′)) over u's backward neighbours u′, the set Intersect
// reads off 𝒜, in the same ascending order, so both search the same
// tree node for node. Only a winner builds its one-direction 𝒜.
// Building one for every alternative, as a first version did,
// allocated 5.4 MB in process over serve-warm's 64 plans and read
// serve-warm rss_peak_mb 27.58 → 29.19 MB (1.06×, 10 of 10 pairs
// worse). Scan local candidates need no 𝒜 either, but cost |C(u)| per
// node: racing stream-embeddings' 48 plans at 20 000 took 1.03 s, one
// plan 177 ms.

// raceOrders are the static orders a race tries after the incumbent. In
// process at commit 46a7577, over serve-warm's 64 queries (Optimized,
// limit 1 000), picking the cheapest of these four per query by node
// count cost 0.76× the incumbent order's time; CFL's and CECI's orders
// added nothing the four did not find. DP-iso's order is adaptive and
// is not raced.
var raceOrders = []order.Method{order.GQL, order.RI, order.QSI, order.VF2PP}

// raceNodeCeiling bounds what a race costs: an incumbent whose count
// searches more nodes than this does not race, and each alternative
// stops at the engine's poll once it has searched the fewest nodes seen
// so far (enumerate.Options.MaxNodes). A race therefore searches at
// most about four times the ceiling, paid once per cached plan. In
// process, with the counted tail, serve-warm's 64 plans count to 1 000
// in at most 3 036 nodes (median 65), and racing them took 10.5 ms in
// all, 2.5 ms at most for one; stream-embeddings' 48 plans count to
// 20 000 in at most 33 273 nodes, and racing them took 75 ms in all,
// 14 ms at most for one. Both stay under the ceiling; enum-heavy's
// requests are parallel and do not race.
const raceNodeCeiling = 1 << 16

// raceNodeFloor is the fewest nodes an incumbent count must search for
// its plan to race: below it there is little to win. In process over
// serve-warm's 64 plans at limit 1 000, racing every plan took a pass
// from 15 509 nodes to 12 152; racing the 13 whose incumbent needs 256
// nodes or more takes it to 12 808, 80 % of the saving, and allocates
// 0.47 MB where racing all 64 allocated 1.6 MB. Racing all 64 read
// serve-warm rss_peak_mb 28.2–28.9 MB over 5 runs, the floor 27.83 MB
// median over 10, the counted tail without a race 27.67 and the parent
// 27.61.
const raceNodeFloor = 256

// Race records one order race on a plan: the limit it counted to and
// each order it ran, the incumbent first.
type Race struct {
	Limit   uint64      `json:"limit"`
	Entries []RaceEntry `json:"entries"`
	// Winner indexes Entries: the order the plan now runs. 0 is the
	// incumbent, which wins every tie.
	Winner int `json:"winner"`
}

// RaceEntry is one order's run in a race.
type RaceEntry struct {
	Order string `json:"order"`
	Nodes uint64 `json:"nodes"`
	// Stopped marks an order stopped at the node budget — the fewest
	// nodes an earlier order needed — before its count finished.
	Stopped bool `json:"stopped,omitempty"`
}

// RaceOrders races plan's orders once, at limit (0 = every embedding):
// the first call on a plan claims it, and every later call — and any
// call on a plan a race returned — returns nil. It also returns nil,
// having run no race, for a plan that is empty, adaptive, has a fixed
// order or a local-candidate method other than Intersect, and for one
// whose incumbent count searches fewer than raceNodeFloor nodes or more
// than raceNodeCeiling.
// Otherwise it returns a new plan over the same candidate sets with the
// winning order, its space and the Race record: the caller puts it in
// place of plan. Each alternative is counted and dropped before the
// next one; only a kept incumbent parks its engine on the new plan.
func RaceOrders(plan *Plan, limit uint64) *Plan {
	cfg := plan.Cfg
	// A raced plan answers with a load, not a write to its cache line.
	if plan.raced.Load() || plan.Empty || cfg.Adaptive || cfg.FixedOrder != nil ||
		cfg.Local != enumerate.Intersect || !plan.raced.CompareAndSwap(false, true) {
		return nil
	}
	opts := enumerate.Options{
		Local: cfg.Local, Kernel: cfg.Kernel, FailingSets: cfg.FailingSets,
		Homomorphism: cfg.Homomorphism, SymmetryClasses: plan.SymClasses, CountTail: cfg.CountTail,
		MaxEmbeddings: limit, MaxNodes: raceNodeCeiling,
	}
	eng, err := plan.takeEngine(opts)
	if err != nil {
		return nil
	}
	nodes, stopped := raceRun(eng)
	if stopped || nodes < raceNodeFloor {
		plan.parkEngine(eng)
		return nil
	}
	race := &Race{Limit: limit, Entries: []RaceEntry{{Order: plan.OrderMethod, Nodes: nodes}}}
	bestOrder, tried := plan.Order, [][]graph.Vertex{plan.Order}
	opts.Local, opts.Within = enumerate.Direct, make([][]uint64, len(plan.Cand))
	for u, c := range plan.Cand {
		in := plan.Data.Bitmap()
		for _, v := range c {
			in[v>>6] |= 1 << (v & 63)
		}
		opts.Within[u] = in
	}
	defer func() {
		for u, c := range plan.Cand {
			for _, v := range c {
				opts.Within[u][v>>6] = 0
			}
			plan.Data.PutBitmap(opts.Within[u])
		}
	}()
	for _, m := range raceOrders {
		phi, err := order.Compute(m, plan.Query, plan.Data, plan.Cand)
		if err != nil || slices.ContainsFunc(tried, func(o []graph.Vertex) bool { return slices.Equal(o, phi) }) {
			continue
		}
		tried = append(tried, phi)
		opts.MaxNodes = nodes
		alt, err := enumerate.NewEngine(plan.Query, plan.Data, plan.Cand, nil, phi, opts)
		if err != nil {
			continue
		}
		n, stopped := raceRun(alt)
		race.Entries = append(race.Entries, RaceEntry{Order: m.String(), Nodes: n, Stopped: stopped})
		if !stopped && n < nodes {
			bestOrder, nodes = phi, n
			race.Winner = len(race.Entries) - 1
		}
	}
	best := &Plan{
		Query: plan.Query, Data: plan.Data, Cfg: cfg, Cand: plan.Cand, Space: plan.Space, Order: plan.Order,
		SymClasses: plan.SymClasses, Orbit: plan.Orbit, Stages: plan.Stages, OrderMethod: plan.OrderMethod,
		FilterTime: plan.FilterTime, BuildTime: plan.BuildTime, OrderTime: plan.OrderTime,
		MeanCandidates: plan.MeanCandidates, MemoryBytes: plan.MemoryBytes, Span: plan.Span, Race: race,
	}
	if race.Winner == 0 {
		best.parkEngine(eng)
	} else {
		// The plan's preprocessing record stays the incumbent's: a hit on
		// the winner saves what a hit on plan did.
		best.Order, best.OrderMethod = bestOrder, race.Entries[race.Winner].Order
		best.Space = candspace.Build(plan.Query, plan.Data, plan.Cand, nil, bestOrder)
		best.MemoryBytes = best.Space.MemoryBytes()
	}
	best.raced.Store(true)
	return best
}

// raceRun runs a race engine once and releases it: the nodes it
// searched, and whether its budget stopped it.
func raceRun(eng *enumerate.Engine) (uint64, bool) {
	st := eng.Run()
	eng.Release()
	return st.Nodes, st.OverBudget
}
