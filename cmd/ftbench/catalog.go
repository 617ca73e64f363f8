package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units and directions (the tests keep
// the two in step); Layer and Moves are documentation for per-layer metrics:
// the layer the metric prices and the end-to-end metric and workload a change
// to that layer should move.
type metricDef struct {
	Name, Unit, Better string
	Layer, Moves       string
}

// endToEnd are the metrics a user of the library sees. Every untraced run
// prints all of them, whatever the workload: closed-loop workloads read
// latency per op and max_rate_rps as the op rate one caller sustains; the
// open-loop serve workload reads them at its rate ladder (see README.md).
var endToEnd = []metricDef{
	{Name: "throughput_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "max_rate_rps", Unit: "req/s", Better: "higher"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "heap_peak_mib", Unit: "MiB", Better: "lower"},
}

// Ladder sizes: one that fits L2, one at the L2/L3 boundary, one whose
// src+dst+scratch exceeds L3.
var ladderSizes = []int{1 << 12, 1 << 16, 1 << 20}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	add := func(layer, moves, unit, better string, names ...string) {
		for _, n := range names {
			ms = append(ms, metricDef{Name: n, Unit: unit, Better: better, Layer: layer, Moves: moves})
		}
	}
	perSize := func(prefix string) []string {
		return []string{prefix + ".n4096", prefix + ".n65536", prefix + ".n1048576"}
	}
	const localTP = "throughput_gflops on local"
	add("fft", localTP+" and dist", "us", "lower", perSize("fft.exec_us")...)
	add("fft", "computed, not measured", "flop/B", "higher", perSize("fft.ops_per_byte")...)
	add("checksum", localTP+" and faults", "us", "lower", "checksum.pair_us.n65536", "checksum.dot_us.n256")
	for _, p := range []string{"core.plain_us", "core.online_us", "core.online_mem_us", "core.comp_ft_us", "core.mem_ft_us"} {
		add("core", localTP, "us", "lower", perSize(p)...)
	}
	add("core", localTP, "%", "lower", perSize("core.decomp_tax_pct")...)
	add("core", localTP, "%", "lower", perSize("core.overhead_vs_raw_pct")...)
	add("core", localTP, "us", "lower", "core.real_untangle_us.n65536")
	add("core", "failed ops on local, were spiked inputs in its pools", "ratio", "lower",
		"core.false_reject_frac.online", "core.false_reject_frac.online_mem")
	add("core", "throughput_gflops on faults", "us", "lower",
		"core.recover_us.1m", "core.recover_us.1c", "core.recover_us.1m1c", "core.recover_us.1m2c")
	add("core", "throughput_gflops on faults", "count", "lower",
		"core.detections_per_op", "core.recomputations_per_op", "core.mem_corrections_per_op", "core.twiddle_corrections_per_op")
	add("core", "failed ops on faults", "ratio", "higher", "core.repair_yield")
	add("api", "throughput_gflops on local at 2^12", "us", "lower", perSize("api.self_us")...)
	add("nd", "throughput_gflops on local (2-D plan)", "us", "lower",
		"nd.forward_us.512x512.w1", "nd.forward_us.512x512.w2", "nd.self_us.512x512")
	add("nd", "throughput_gflops on local (2-D plan)", "ratio", "higher", "nd.parallel_eff.512x512")
	add("exec", "throughput_gflops on dist and local (2-D plan)", "us", "lower", "exec.run_us_per_task")
	add("exec", "heap_peak_mib on dist", "count", "lower", "exec.spawned")
	add("parallel", "throughput_gflops on dist", "us", "lower",
		"parallel.single_us.chan", "parallel.single_us.message", "parallel.single_us.mesh", "parallel.single_us.shm",
		"parallel.batch8_us.chan", "parallel.batch8_us.mesh", "parallel.batch8_us.shm")
	add("parallel", "throughput_gflops on dist", "ratio", "higher",
		"parallel.pipeline_gain.chan", "parallel.pipeline_gain.mesh", "parallel.pipeline_gain.shm")
	add("mpi", "throughput_gflops on dist (star: no end-to-end change)", "us", "lower",
		"mpi.wire_us.mesh", "mpi.wire_us.star", "mpi.wire_us.shm")
	add("mpi", "throughput_gflops and heap_peak_mib on dist", "count", "lower",
		"mpi.frames_per_op.mesh", "mpi.frames_per_op.star", "mpi.frames_per_op.shm")
	add("mpi", "throughput_gflops and heap_peak_mib on dist", "B", "lower",
		"mpi.bytes_per_op.mesh", "mpi.bytes_per_op.star", "mpi.bytes_per_op.shm")
	add("mpi", "throughput_gflops on dist", "ratio", "lower", "mpi.relayed_frac.mesh", "mpi.relayed_frac.star")
	add("mpi", "throughput_gflops on dist", "count", "higher", "mpi.max_epochs_in_flight.mesh", "mpi.max_epochs_in_flight.shm")
	add("mpi", "throughput_gflops and heap_peak_mib on dist", "count", "lower",
		"mpi.allocs_per_op.chan", "mpi.allocs_per_op.mesh", "mpi.allocs_per_op.shm")
	add("mpi", "latency_p50_ms on serve", "us", "lower", "mpi.serve_encode_us.n4096", "mpi.serve_decode_us.n4096")
	add("serve", "latency_p50_ms on serve", "us", "lower",
		"serve.rtt_us.n256", "serve.rtt_us.n4096", "serve.overhead_us.n256", "serve.overhead_us.n4096")
	add("serve", "latency_p99_ms and max_rate_rps on serve", "us", "lower", "serve.wait_us.p99", "serve.gen_late_us.p99")
	add("serve", "latency_p99_ms and heap_peak_mib on serve", "ratio", "higher", "serve.cache_hit_frac")
	add("serve", "latency_p99_ms and heap_peak_mib on serve", "count", "lower", "serve.cache_builds", "serve.cache_evictions")
	add("serve", "failed requests on serve", "ratio", "higher", "serve.repair_frac")
	add("serve", "latency_p50_ms and heap_peak_mib on serve", "count", "lower", "serve.allocs_per_req")
	add("tune", "setup_s, only if a default changes", "ms", "lower", "tune.build_ms.estimate", "tune.build_ms.measured")
	add("tune", "none: a knob inside noise can go", "ratio", "higher",
		"tune.spread.kernel", "tune.spread.conv", "tune.spread.tile", "tune.spread.window")
	add("trace", "none: the price of tracing", "%", "lower", "trace.overhead_pct")
	return ms
}
