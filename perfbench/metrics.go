package main

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = map[string]string{
	"setup_s":           "s",
	"samples_per_s":     "1/s",
	"latency_p50_ms":    "ms",
	"latency_p90_ms":    "ms",
	"cpu_us_per_sample": "us",
	"peak_rss_mb":       "MB",
	"ok_ratio":          "ratio",
}

// perLayer lists the metrics of a traced run, with their units. Every
// traced run reports all of them; a layer a workload does not pass
// through reads 0 there (README.md gives the map of which layer
// dominates on which workload).
var perLayer = map[string]string{
	"serve.handler_ms":              "ms",
	"serve.queue_batch_ms":          "ms",
	"serve.batch_size_mean":         "count",
	"serve.batch_fill_ratio":        "ratio",
	"serve.rejected_ratio":          "ratio",
	"serve.cpu_us_per_sample":       "us",
	"serve.boot_s":                  "s",
	"serve.ready_s":                 "s",
	"gateway.handler_ms":            "ms",
	"gateway.self_ms":               "ms",
	"gateway.attempts_per_ok":       "ratio",
	"gateway.busiest_backend_share": "ratio",
	"gateway.cpu_us_per_sample":     "us",
	"gateway.ready_s":               "s",
	"http.transport_ms":             "ms",
	"wire.json_decode_us":           "us",
	"wire.json_encode_us":           "us",
	"wire.request_bytes":            "bytes",
	"wire.response_bytes":           "bytes",
	"compress.decode_ms":            "ms",
	"compress.decode_mb_per_s":      "MB/s",
	"compress.ratio":                "ratio",
	"nn.forward_ms":                 "ms",
	"nn.forward_us_per_sample":      "us",
	"score.read_ms":                 "ms",
	"score.verify_ms":               "ms",
	"score.forward_ms":              "ms",
	"score.commit_interval_ms":      "ms",
	"score.worker_busy_ratio":       "ratio",
	"artifact.decode_ms":            "ms",
	"artifact.bind_ms":              "ms",
	"core.analyze_ms":               "ms",
	"quant.quantize_ms":             "ms",
	"nn.compile_ms":                 "ms",
	"loadgen.cpu_us_per_sample":     "us",
	"trace.overhead_ratio":          "ratio",
	"trace.unexplained_ms":          "ms",
}

// completeLayers adds every per-layer metric the run did not measure,
// as 0: the layer is absent from the workload.
func completeLayers(m map[string]Metric) map[string]Metric {
	for name, unit := range perLayer {
		if _, ok := m[name]; !ok {
			m[name] = Metric{0, unit}
		}
	}
	return m
}
