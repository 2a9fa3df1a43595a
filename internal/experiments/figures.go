package experiments

import (
	"fmt"
	"time"

	"xdb/internal/engine"
	"xdb/internal/netsim"
	"xdb/internal/tpch"
)

// Figure1 regenerates Fig. 1: TPC-H Q3 over distributed tables, total time
// vs. "actual execution" time for Garlic, Presto, and XDB at two scale
// factors. The shaded transfer share is measured directly for the
// mediators (fetch phase) and by the paper's single-DBMS-differencing
// methodology for XDB.
func Figure1(cfg Config) (*Report, error) {
	r := &Report{
		Title:  "Figure 1 — Q3 total vs actual execution time (TD1)",
		Header: []string{"sf", "system", "total", "transfer(mu)", "transfer share"},
	}
	sfs := []float64{cfg.SFSeries[0], cfg.SF}
	labels := []string{cfg.SFLabels[0], "sf10"}
	for i, sf := range sfs {
		rg, err := newRig(cfg, rigConfig{td: "TD1", sf: sf})
		if err != nil {
			return nil, err
		}
		gTotal, gStats, err := rg.garlicRun("Q3")
		if err != nil {
			rg.Close()
			return nil, err
		}
		pTotal, pStats, err := rg.prestoRun("Q3", 4)
		if err != nil {
			rg.Close()
			return nil, err
		}
		xTotal, _, err := rg.xdbRun("Q3")
		if err != nil {
			rg.Close()
			return nil, err
		}
		rg.Close()
		local, err := singleNodeTime(cfg, sf, "Q3")
		if err != nil {
			return nil, err
		}
		xMu := xTotal - local
		if xMu < 0 {
			xMu = 0
		}
		r.Add(labels[i], "Garlic", gTotal, gStats.FetchTime, share(gStats.FetchTime, gTotal))
		r.Add(labels[i], "Presto-4", pTotal, pStats.FetchTime, share(pStats.FetchTime, pTotal))
		r.Add(labels[i], "XDB", xTotal, xMu, share(xMu, xTotal))
	}
	r.Note("paper: mediators spend ~85-97%% of total time moving data; XDB approaches the actual execution time")
	return r, nil
}

func share(part, total time.Duration) string {
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(total))
}

// Figure9 regenerates Figs. 9a–9c: overall runtime of all six queries for
// XDB, Garlic, Presto (4 workers), and Sclera under one table
// distribution. Every system answers the first query once, untimed,
// before the first timed cell, so no cell pays a system's cold start.
func Figure9(cfg Config, td string) (*Report, error) {
	r := &Report{
		Title:  fmt.Sprintf("Figure 9 (%s) — overall runtime, sf10-equivalent", td),
		Header: []string{"query", "XDB", "Garlic", "Presto-4", "Sclera", "speedup vs Garlic", "speedup vs Presto"},
	}
	rg, err := newRig(cfg, rigConfig{td: td, sf: cfg.SF})
	if err != nil {
		return nil, err
	}
	defer rg.Close()
	// XDB's first query pays the System's calibration, and each system's
	// first query its first connections: no part of one query's cost.
	q0 := cfg.Queries[0]
	if _, _, err := rg.xdbRun(q0); err != nil {
		return nil, err
	}
	if _, _, err := rg.garlicRun(q0); err != nil {
		return nil, err
	}
	if _, _, err := rg.prestoRun(q0, 4); err != nil {
		return nil, err
	}
	if !cfg.SkipSclera {
		if _, _, err := rg.scleraRun(q0); err != nil {
			return nil, err
		}
	}
	for _, q := range cfg.Queries {
		xTotal, _, err := rg.xdbRun(q)
		if err != nil {
			return nil, err
		}
		gTotal, _, err := rg.garlicRun(q)
		if err != nil {
			return nil, err
		}
		pTotal, _, err := rg.prestoRun(q, 4)
		if err != nil {
			return nil, err
		}
		scleraCell := "skipped"
		if !cfg.SkipSclera {
			sTotal, _, err := rg.scleraRun(q)
			if err != nil {
				return nil, err
			}
			scleraCell = sTotal.Round(time.Millisecond).String()
		}
		r.Add(q, xTotal, gTotal, pTotal, scleraCell, ratio(xTotal, gTotal), ratio(xTotal, pTotal))
	}
	r.Note("paper: XDB up to 4x over Garlic, 6x over Presto, 30x over Sclera")
	return r, nil
}

// Figure10 regenerates Fig. 10: heterogeneous vendors under TD1 (db2 =
// MariaDB, db3 = Hive, rest PostgreSQL), XDB vs Presto-4.
func Figure10(cfg Config) (*Report, error) {
	r := &Report{
		Title:  "Figure 10 — heterogeneous DBMSes (TD1: db2=MariaDB, db3=Hive)",
		Header: []string{"query", "XDB", "Presto-4", "speedup"},
	}
	rg, err := newRig(cfg, rigConfig{
		td: "TD1",
		sf: cfg.SF,
		vendors: map[string]engine.Vendor{
			"db2": engine.VendorMariaDB,
			"db3": engine.VendorHive,
		},
	})
	if err != nil {
		return nil, err
	}
	defer rg.Close()
	for _, q := range cfg.Queries {
		xTotal, _, err := rg.xdbRun(q)
		if err != nil {
			return nil, err
		}
		pTotal, _, err := rg.prestoRun(q, 4)
		if err != nil {
			return nil, err
		}
		r.Add(q, xTotal, pTotal, ratio(xTotal, pTotal))
	}
	r.Note("paper: XDB outperforms Presto ~2x on average; the gap narrows because XDB inherits the slower engines' join speed")
	return r, nil
}

// Figure11 regenerates Fig. 11: scaling Presto's workers (2/4/10) against
// XDB's decentralized execution, TD1.
func Figure11(cfg Config) (*Report, error) {
	r := &Report{
		Title:  "Figure 11 — scaled-out mediator vs decentralized execution (TD1, Q3)",
		Header: []string{"system", "total", "fetch", "local exec"},
	}
	rg, err := newRig(cfg, rigConfig{td: "TD1", sf: cfg.SF})
	if err != nil {
		return nil, err
	}
	defer rg.Close()
	for _, workers := range []int{2, 4, 10} {
		total, st, err := rg.prestoRun("Q3", workers)
		if err != nil {
			return nil, err
		}
		r.Add(fmt.Sprintf("Presto-%d", workers), total, st.FetchTime, st.LocalTime)
	}
	xTotal, _, err := rg.xdbRun("Q3")
	if err != nil {
		return nil, err
	}
	r.Add("XDB", xTotal, "-", "-")
	r.Note("paper: adding workers improves Presto's actual processing but centralized fetching offsets the scale-out")
	return r, nil
}

// TableIV regenerates Table IV: the delegation plans' inter-task edges —
// movement type and estimated moved rows — for Q3, Q5, Q8 under TD1 and
// TD2.
func TableIV(cfg Config) (*Report, error) {
	r := &Report{
		Title:  "Table IV — delegation plan analysis (rounded row estimates)",
		Header: []string{"TD", "query", "edge", "move", "#rows"},
	}
	for _, td := range []string{"TD1", "TD2"} {
		rg, err := newRig(cfg, rigConfig{td: td, sf: cfg.SF})
		if err != nil {
			return nil, err
		}
		for _, q := range []string{"Q3", "Q5", "Q8"} {
			plan, _, err := rg.tb.System.Plan(tpch.Queries[q])
			if err != nil {
				rg.Close()
				return nil, err
			}
			var total float64
			for _, e := range plan.Edges {
				r.Add(td, q,
					fmt.Sprintf("t%d:%s -> t%d:%s", e.From.ID, e.From.Node, e.To.ID, e.To.Node),
					e.Move.String(), fmt.Sprintf("%.0f", e.EstRows))
				total += e.EstRows
			}
			r.Add(td, q, "SUM", "", fmt.Sprintf("%.0f", total))
		}
		rg.Close()
	}
	r.Note("paper: plans mix implicit (pipelined) and explicit (materialized) movements; TD changes the task count and moved volume")
	return r, nil
}

// Figure12 regenerates Figs. 12a–c: per-query runtime as the data scales,
// for Q3 (3 tables), Q9 (6 tables), Q8 (8 tables).
func Figure12(cfg Config) (*Report, error) {
	r := &Report{
		Title:  "Figure 12 — data scalability per query (TD1)",
		Header: []string{"query", "sf", "XDB", "Garlic", "Presto-4"},
	}
	queries := []string{"Q3", "Q9", "Q8"}
	for si, sf := range cfg.SFSeries {
		rg, err := newRig(cfg, rigConfig{td: "TD1", sf: sf})
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			xTotal, _, err := rg.xdbRun(q)
			if err != nil {
				rg.Close()
				return nil, err
			}
			gTotal, _, err := rg.garlicRun(q)
			if err != nil {
				rg.Close()
				return nil, err
			}
			pTotal, _, err := rg.prestoRun(q, 4)
			if err != nil {
				rg.Close()
				return nil, err
			}
			r.Add(q, cfg.SFLabels[si], xTotal, gTotal, pTotal)
		}
		rg.Close()
	}
	r.Note("paper: XDB outperforms at every scale; runtime grows linearly with intermediate data")
	return r, nil
}

// Figure13 regenerates Fig. 13: average runtime over all queries per scale
// factor.
func Figure13(cfg Config) (*Report, error) {
	r := &Report{
		Title:  "Figure 13 — average runtime across queries (TD1)",
		Header: []string{"sf", "XDB", "Garlic", "Presto-4", "avg speedup vs Garlic", "avg speedup vs Presto"},
	}
	for si, sf := range cfg.SFSeries {
		rg, err := newRig(cfg, rigConfig{td: "TD1", sf: sf})
		if err != nil {
			return nil, err
		}
		var xSum, gSum, pSum time.Duration
		for _, q := range cfg.Queries {
			xTotal, _, err := rg.xdbRun(q)
			if err != nil {
				rg.Close()
				return nil, err
			}
			gTotal, _, err := rg.garlicRun(q)
			if err != nil {
				rg.Close()
				return nil, err
			}
			pTotal, _, err := rg.prestoRun(q, 4)
			if err != nil {
				rg.Close()
				return nil, err
			}
			xSum += xTotal
			gSum += gTotal
			pSum += pTotal
		}
		rg.Close()
		n := time.Duration(len(cfg.Queries))
		r.Add(cfg.SFLabels[si], xSum/n, gSum/n, pSum/n, ratio(xSum, gSum), ratio(xSum, pSum))
	}
	r.Note("paper: average speedups of 3x (Garlic) and 4x (Presto) across scale factors")
	return r, nil
}

// Figure14 regenerates Fig. 14: bytes transferred during execution under
// the on-premise and geo-distributed scenarios. Network shaping is
// bypassed (TimeScale) — this experiment measures volume, not time.
func Figure14(cfg Config, td string) (*Report, error) {
	r := &Report{
		Title:  fmt.Sprintf("Figure 14 (%s) — data transferred during execution", td),
		Header: []string{"query", "XDB(ONP) cloud", "XDB(GEO) WAN", "Garlic", "Presto-4"},
	}
	fastCfg := cfg
	fastCfg.TimeScale = 1e6
	for _, q := range cfg.Queries {
		onp, err := measureTransfer(fastCfg, td, q, netsim.ScenarioOnPrem, "xdb")
		if err != nil {
			return nil, err
		}
		geo, err := measureTransfer(fastCfg, td, q, netsim.ScenarioGeo, "xdb")
		if err != nil {
			return nil, err
		}
		garlic, err := measureTransfer(fastCfg, td, q, netsim.ScenarioOnPrem, "garlic")
		if err != nil {
			return nil, err
		}
		presto, err := measureTransfer(fastCfg, td, q, netsim.ScenarioOnPrem, "presto")
		if err != nil {
			return nil, err
		}
		r.Add(q, kb(onp), kb(geo), kb(garlic), kb(presto))
	}
	r.Note("ONP counts bytes touching the cloud site; GEO counts bytes crossing any site boundary")
	r.Note("paper: XDB(ONP) ships only control traffic and the final result — up to 3 orders of magnitude less")
	return r, nil
}

func measureTransfer(cfg Config, td, q string, scenario netsim.Scenario, system string) (int64, error) {
	rg, err := newRig(cfg, rigConfig{td: td, sf: cfg.SF, scenario: scenario})
	if err != nil {
		return 0, err
	}
	defer rg.Close()
	rg.tb.ResetTransfers()
	switch system {
	case "garlic":
		if _, _, err := rg.garlicRun(q); err != nil {
			return 0, err
		}
	case "presto":
		if _, _, err := rg.prestoRun(q, 4); err != nil {
			return 0, err
		}
	default:
		if _, _, err := rg.xdbRun(q); err != nil {
			return 0, err
		}
	}
	if system == "xdb" && scenario == netsim.ScenarioGeo {
		return rg.tb.Topo.WANBytes(), nil
	}
	return rg.tb.Topo.CloudBytes(), nil
}

// Figure15 regenerates Fig. 15: XDB's per-phase breakdown (prep, lopt,
// ann+finalize, delegation+execution) per query and scale factor. XDB
// answers the first query once, untimed, on each rig, so every row's
// overhead share is the query's own and not the System's first
// calibration and connections.
func Figure15(cfg Config, td string) (*Report, error) {
	r := &Report{
		Title:  fmt.Sprintf("Figure 15 (%s) — XDB query processing phase breakdown", td),
		Header: []string{"query", "sf", "prep", "lopt", "ann", "deleg+exec", "consult rounds", "overhead share", "dials", "reuses"},
	}
	for si, sf := range cfg.SFSeries {
		rg, err := newRig(cfg, rigConfig{td: td, sf: sf})
		if err != nil {
			return nil, err
		}
		if _, _, err := rg.xdbRun(cfg.Queries[0]); err != nil { // untimed, as in Figure9
			rg.Close()
			return nil, err
		}
		conn, _ := rg.tb.System.Connector(rg.tb.Order[0])
		for _, q := range cfg.Queries {
			before := conn.Transport()
			_, res, err := rg.xdbRun(q)
			if err != nil {
				rg.Close()
				return nil, err
			}
			after := conn.Transport()
			bd := res.Breakdown
			overhead := bd.Prep + bd.Lopt + bd.Ann
			r.Add(q, cfg.SFLabels[si], bd.Prep, bd.Lopt, bd.Ann, bd.Deleg+bd.Exec,
				bd.ConsultRounds, share(overhead, bd.Total()),
				after.Dials-before.Dials, after.Reuses-before.Reuses)
		}
		rg.Close()
	}
	r.Note("paper: prep+lopt+ann stays under 10s and its share shrinks as data grows; ann is scale-independent")
	return r, nil
}
