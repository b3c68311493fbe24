package main

import "strings"

// perLayerNames is the traced run's vocabulary, as listed in
// BENCHMARK.json; NOTES.md maps each to its layer and workload.
var perLayerNames = []string{
	"trace.overhead_ms", "trace.overhead_frac",
	"server.overhead_ms", "server.resp_lines",
	"shellcmd.exec_ms",
	"geom.wkt_parse_ms",
	"rtree.search_ms", "rtree.candidates", "rtree.join_ms", "rtree.join_candidates",
	"query.select_ms", "query.join_ms", "query.pjoin_ms", "query.within_ms",
	"query.mbr_ms", "query.interior_ms", "query.geometry_ms",
	"query.pipeline_filter_ms", "query.pipeline_refine_ms", "query.pipeline_queue_depth",
	"query.lazy_build_ms", "query.delta_rebuild_ms", "query.result_frac",
	"core.tests", "core.mbr_reject_frac", "core.interval_true_hit_frac", "core.interval_reject_frac",
	"core.pip_hit_frac", "core.sig_reject_frac", "core.hw_reject_frac", "core.exact_frac",
	"core.hw_ms", "core.sw_ms", "core.collect_ms", "core.sentinel_checks",
	"interval.build_ms", "interval.build_us_per_object", "interval.rasterize_ms",
	"edgeindex.build_ms", "edgeindex.skipped_per_hit",
	"store.open_ms", "store.save_ms", "store.bytes_per_vertex",
	"ingest.view_ms", "ingest.compactions", "ingest.compact_ms", "ingest.pending_max",
	"ingest.writer_lag_p99_ms",
	"wal.mean_batch", "wal.bytes_per_write",
	"coord.join_ms", "coord.select_ms", "coord.slowest_shard_ms", "coord.merge_ms", "coord.dup_frac",
	"partition.write_ms",
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "setup_s":
		return "s"
	case name == "peak_rss_mb":
		return "MB"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us_per_object"):
		return "us"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_vertex"), strings.HasSuffix(name, "bytes_per_write"):
		return "B"
	default:
		return "count"
	}
}
