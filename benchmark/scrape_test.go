package main

import (
	"strings"
	"testing"
)

const sampleExposition = `# HELP cdml_ticks_total Deployment ticks.
# TYPE cdml_ticks_total counter
cdml_ticks_total 1300
# TYPE cdml_prequential_error gauge
cdml_prequential_error 0.2021875
cdml_proactive_train_seconds_bucket{le="0.001048576"} 1
cdml_proactive_train_seconds_bucket{le="+Inf"} 4
cdml_proactive_train_seconds_sum 0.00842849
cdml_proactive_train_seconds_count 4
cdml_ingest_queue_rejected_total{deployment="default"} 0
cdml_ingest_queue_rejected_total{deployment="other one"} 7
cdml_runtime_gc_pause_p99{q="0.99"} 2.9491200000000004e-04
# exemplar cdml_http_request_seconds{path="/v1/metrics",version="v1"} trace_id=8f3a duration_seconds=0.0005
cdml_http_request_seconds_count{path="/v1/deployments/{name}/predict",version="v1",deployment="default"} 24079 1700000000000

cdml_store_mu 1e+00
`

func TestParsePromAndGet(t *testing.T) {
	p, err := parseProm(strings.NewReader(sampleExposition))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		labels []string
		want   float64
	}{
		{"cdml_ticks_total", nil, 1300},
		{"cdml_prequential_error", nil, 0.2021875},
		{"cdml_proactive_train_seconds_sum", nil, 0.00842849},
		{"cdml_proactive_train_seconds_count", nil, 4},
		{"cdml_ingest_queue_rejected_total", []string{`deployment="default"`}, 0},
		{"cdml_ingest_queue_rejected_total", []string{`deployment="other one"`}, 7}, // a space inside a label value
		{"cdml_runtime_gc_pause_p99", nil, 2.9491200000000004e-04},
		{"cdml_http_request_seconds_count", []string{`path="/v1/deployments/{name}/predict"`, `deployment="default"`}, 24079}, // braces inside a label value, trailing timestamp
		{"cdml_store_mu", nil, 1},
	} {
		got, err := p.get(c.name, c.labels...)
		if err != nil || got != c.want {
			t.Errorf("get(%s, %v) = %v, %v; want %v", c.name, c.labels, got, err, c.want)
		}
	}
	if _, err := p.get("cdml_no_such_series"); err == nil {
		t.Error("a series the server does not expose read as a value")
	}
	if _, err := p.get("cdml_ingest_queue_rejected_total"); err == nil {
		t.Error("an ambiguous lookup (two deployments) returned one of them")
	}
	if _, err := p.get("cdml_proactive_train_seconds"); err == nil {
		t.Error("a family prefix matched its _sum/_count/_bucket series")
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"cdml_ticks_total", "cdml_ticks_total abc", `cdml_x{le="1" 3`} {
		if _, err := parseProm(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parseProm accepted %q", bad)
		}
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and a parenthesis, as the kernel prints it.
	stat := "4242 (cdml serve) x) S 1 4242 4242 0 -1 4194560 1000 0 0 0 1234 567 0 0 20 0 9 0 100 1000000 5000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	u, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234.0 + 567.0) / clockTicksPerSecond; u.cpuSeconds != want {
		t.Errorf("cpu seconds = %v, want %v", u.cpuSeconds, want)
	}
	if _, err := parseProcStat("4242 cdml-serve S 1"); err == nil {
		t.Error("a stat line without a command field was accepted")
	}
	mb, err := parseVmHWM("Name:\tcdml-serve\nVmPeak:\t  999999 kB\nVmHWM:\t  250368 kB\nVmRSS:\t  1 kB\n")
	if err != nil || mb != 244.5 {
		t.Errorf("VmHWM = %v MB, %v; want 244.5", mb, err)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status file without VmHWM was accepted")
	}
}
