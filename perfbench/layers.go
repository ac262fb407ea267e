package main

// layerDef is one per-layer metric the traced run prints.
type layerDef struct {
	name, unit, better string
}

// table1Rows names Table 1's rows in metric names, in sim.Table1's
// order.
var table1Rows = []string{"stack-1task", "stack-3tasks", "buffer-1task", "buffer-3tasks"}

// perLayer lists every per-layer metric, in BENCHMARK.json's order. A
// traced run prints all of them; a layer the workload's op never calls
// reads 0.
var perLayer = func() []layerDef {
	defs := []layerDef{
		{"parser.ms", "ms", "lower"},
		{"sem.ms", "ms", "lower"},
		{"lower.ms", "ms", "lower"},
		{"pipeline.key_ms", "ms", "lower"},
		{"pipeline.fingerprint_ms", "ms", "lower"},
		{"pipeline.codec_ms", "ms", "lower"},
		{"compile.ms", "ms", "lower"},
		{"compile.states", "count", "lower"},
		{"compile.transitions", "count", "lower"},
		{"analyze.ms", "ms", "lower"},
		{"absint.ms", "ms", "lower"},
		{"analyze.file_ms", "ms", "lower"},
		{"analyze.findings", "count", "lower"},
		{"cgen.ms", "ms", "lower"},
		{"cgen.kb", "kB", "lower"},
		{"cache.write_ms", "ms", "lower"},
		{"cache.read_ms", "ms", "lower"},
		{"cache.hits", "count", "higher"},
		{"cache.misses", "count", "lower"},
		{"cache.puts", "count", "lower"},
		{"cache.hit_ratio", "ratio", "higher"},
		{"pipeline.replay_ratio", "ratio", "higher"},
		{"driver.v1_hit_ratio", "ratio", "higher"},
		{"driver.unattributed_ms", "ms", "lower"},
		{"simd.handler_us_per_step", "us", "lower"},
		{"simd.handler_allocs_per_step", "count", "lower"},
		{"simd.transport_us_per_step", "us", "lower"},
		{"simd.allocs_per_step", "count", "lower"},
		{"exec.session_us_per_step", "us", "lower"},
		{"exec.session_allocs_per_step", "count", "lower"},
		{"table.step_ns", "ns", "lower"},
		{"table.allocs_per_step", "count", "lower"},
		{"efsm.step_ns", "ns", "lower"},
		{"efsm.allocs_per_step", "count", "lower"},
	}
	for _, row := range table1Rows {
		defs = append(defs,
			layerDef{"sim.build_ms." + row, "ms", "lower"},
			layerDef{"sim.run_ms." + row, "ms", "lower"},
			layerDef{"sim.task_kcycles." + row, "kcycles", "lower"},
			layerDef{"rtos.kcycles." + row, "kcycles", "lower"},
			layerDef{"sim.states." + row, "count", "lower"},
			layerDef{"sim.image_bytes." + row, "bytes", "lower"},
		)
	}
	return append(defs,
		layerDef{"runtime.alloc_mb", "MB", "lower"},
		layerDef{"runtime.mallocs", "count", "lower"},
		layerDef{"runtime.gc_cycles", "count", "lower"},
		layerDef{"runtime.gc_pause_ms", "ms", "lower"},
		layerDef{"trace.unattributed_ms", "ms", "lower"},
		layerDef{"trace.overhead_pct", "%", "lower"},
		layerDef{"trace.spans", "count", "lower"},
	)
}()

// spanLayers maps the span names the re-enactments record to the
// per-layer time metric their self time feeds (in ms per op).
var spanLayers = map[string]string{
	"parser":               "parser.ms",
	"sem":                  "sem.ms",
	"lower":                "lower.ms",
	"pipeline.key":         "pipeline.key_ms",
	"pipeline.fingerprint": "pipeline.fingerprint_ms",
	"pipeline.codec":       "pipeline.codec_ms",
	"compile":              "compile.ms",
	"analyze":              "analyze.ms",
	"absint":               "absint.ms",
	"analyze.file":         "analyze.file_ms",
	"cgen":                 "cgen.ms",
	"cache.write":          "cache.write_ms",
	"cache.read":           "cache.read_ms",
}

// putLayerTimes turns the spans of ops re-enactments into per-op layer
// times: each layer's self time, and the op root's own self time as
// the unattributed remainder.
func putLayerTimes(lm layerMetrics, spans []span, ops float64) {
	for name, t := range layerTotals(spans) {
		if metric, ok := spanLayers[name]; ok {
			lm[metric] += float64(t.selfNS) / 1e6 / ops
		}
		if name == "op" {
			lm["trace.unattributed_ms"] += float64(t.selfNS) / 1e6 / ops
		}
	}
}
