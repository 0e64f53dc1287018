package main

import (
	"fmt"

	"fastforward/perfbench/bench"
)

// layerMetric derives one per-layer metric from the aggregated spans.
type layerMetric struct {
	name, unit string
	value      func(st map[string]bench.LayerStat) float64
}

// meanUS, meanMS: the mean span duration; perUnit: duration per work
// unit (per sample, per block, per call) scaled from ns by div.
func meanUS(span string) func(map[string]bench.LayerStat) float64 {
	return func(st map[string]bench.LayerStat) float64 { return st[span].MeanNS() / 1e3 }
}

func meanMS(span string) func(map[string]bench.LayerStat) float64 {
	return func(st map[string]bench.LayerStat) float64 { return st[span].MeanNS() / 1e6 }
}

func perUnit(span string, div float64) func(map[string]bench.LayerStat) float64 {
	return func(st map[string]bench.LayerStat) float64 { return st[span].NSPerUnit() / div }
}

// simReplayed are the layer calls replayed for every traced evaluation;
// what the evaluation takes beyond them is the testbed's own time.
var simReplayed = []string{"floorplan.trace", "floorplan.mimo_channel", "phyrate.mimo_rate",
	"cnf.desired_mimo", "cnf.synthesize_mimo"}

// layerTable lists every per-layer metric; README.md maps each to the
// end-to-end metric and workload it should move.
var layerTable = []layerMetric{
	{"testbed.evaluate_client.us", "us", meanUS("testbed.evaluate_client")},
	{"testbed.self.us", "us", func(st map[string]bench.LayerStat) float64 {
		ev := st["testbed.evaluate_client"]
		self := ev.TotalNS
		for _, s := range simReplayed {
			self -= st[s].TotalNS
		}
		return float64(self) / float64(ev.Calls) / 1e3
	}},
	{"cnf.desired_mimo.us", "us", meanUS("cnf.desired_mimo")},
	{"cnf.desired_mimo.alloc_bytes", "B", func(st map[string]bench.LayerStat) float64 {
		l := st["cnf.desired_mimo"]
		return float64(l.Bytes) / float64(l.Calls)
	}},
	{"cnf.desired_mimo.allocs", "count", func(st map[string]bench.LayerStat) float64 {
		l := st["cnf.desired_mimo"]
		return float64(l.Objects) / float64(l.Calls)
	}},
	{"cnf.synthesize_mimo.us", "us", meanUS("cnf.synthesize_mimo")},
	{"floorplan.trace.us", "us", perUnit("floorplan.trace", 1e3)},
	{"floorplan.mimo_channel.us", "us", meanUS("floorplan.mimo_channel")},
	{"phyrate.mimo_rate.us", "us", perUnit("phyrate.mimo_rate", 1e3)},

	{"sic.tune.ms", "ms", meanMS("sic.tune")},
	{"sic.tune.alloc_bytes", "B", func(st map[string]bench.LayerStat) float64 {
		l := st["sic.tune"]
		return float64(l.Bytes) / float64(l.Calls)
	}},
	{"sic.tune.refine_iterations", "count", func(st map[string]bench.LayerStat) float64 {
		l := st["sic.tune"]
		return float64(l.N) / float64(l.Calls)
	}},
	{"sic.residual_fir.us", "us", meanUS("sic.residual_fir")},
	{"sic.estimate_fir.ms", "ms", meanMS("sic.estimate_fir")},
	{"sic.digital_cancel.ns_per_sample", "ns", perUnit("sic.digital_cancel", 1)},

	{"relayd.process_rtt.us", "us", meanUS("relayd.process_rtt")},
	{"pipeline.session_chain.ns_per_sample", "ns", perUnit("pipeline.session_chain", 1)},
	{"pipeline.stage.cancel.ns_per_sample", "ns", perUnit("pipeline.stage.cancel", 1)},
	{"pipeline.stage.cfo_remove.ns_per_sample", "ns", perUnit("pipeline.stage.cfo_remove", 1)},
	{"pipeline.stage.cnf_pre.ns_per_sample", "ns", perUnit("pipeline.stage.cnf_pre", 1)},
	{"pipeline.stage.cfo_restore.ns_per_sample", "ns", perUnit("pipeline.stage.cfo_restore", 1)},
	{"pipeline.stage.amp.ns_per_sample", "ns", perUnit("pipeline.stage.amp", 1)},
	{"pipeline.batch.ns_per_session_sample", "ns", perUnit("pipeline.batch", 1)},
	{"relayd.wire_overhead.us", "us", func(st map[string]bench.LayerStat) float64 {
		return (st["relayd.process_rtt"].MeanNS() - st["pipeline.session_chain"].MeanNS()) / 1e3
	}},

	{"fleet.wire_admit.us", "us", meanUS("fleet.wire_admit")},
	{"relayd.build_session_chain.us", "us", meanUS("relayd.build_session_chain")},
	{"relay.budget_admit.ns", "ns", perUnit("relay.budget_admit", 1)},
	{"fleet.verify_session.us_per_block", "us", perUnit("fleet.verify_session", 1e3)},
	{"fleet.residual_load.us", "us", meanUS("fleet.residual_load")},
	{"fleet.wire_release.us", "us", meanUS("fleet.wire_release")},
}

// layerMetrics evaluates the table; a span that was never recorded is
// an error, since every traced run covers every layer.
func layerMetrics(st map[string]bench.LayerStat) (map[string]metric, error) {
	need := map[string]bool{}
	for _, s := range append([]string{"testbed.evaluate_client", "sic.tune", "sic.residual_fir",
		"sic.estimate_fir", "sic.digital_cancel", "relayd.process_rtt", "pipeline.session_chain",
		"pipeline.stage.cancel", "pipeline.stage.cfo_remove", "pipeline.stage.cnf_pre",
		"pipeline.stage.cfo_restore", "pipeline.stage.amp", "pipeline.batch", "fleet.wire_admit",
		"relayd.build_session_chain", "relay.budget_admit", "fleet.verify_session",
		"fleet.residual_load", "fleet.wire_release"}, simReplayed...) {
		need[s] = true
	}
	for s := range need {
		if st[s].Calls == 0 {
			return nil, fmt.Errorf("no %s spans were recorded", s)
		}
	}
	out := make(map[string]metric, len(layerTable)+1)
	for _, m := range layerTable {
		out[m.name] = metric{m.value(st), m.unit}
	}
	return out, nil
}
