package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// testFleetNodes is the node count of the fleet12 topology the
// fleet-churn script draws failed nodes from.
func testFleetNodes(t *testing.T) int {
	t.Helper()
	_, nodes, err := loadFleet12("..")
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamsFollowSeed: one seed always generates byte-identical
// request and mutation streams, and another seed a different one.
func TestStreamsFollowSeed(t *testing.T) {
	hot := hotSet()
	nodes := testFleetNodes(t)
	gens := map[string]func(seed int64) any{
		"serve-open":  func(seed int64) any { return genServeSchedule(seed, 10, hot) },
		"fleet-churn": func(seed int64) any { return genFleetScript(seed, 500, nodes) },
		"plan-sweep": func(seed int64) any {
			c, err := searchCorpus(seed)
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]string, len(c))
			for i, it := range c {
				keys[i] = it.key
			}
			return keys
		},
	}
	for name, gen := range gens {
		a, b, c := mustJSON(t, gen(7)), mustJSON(t, gen(7)), mustJSON(t, gen(8))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different streams", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same stream", name)
		}
	}
}

// TestFleetScriptBoundsLiveSet: the script never cancels an unknown job
// and keeps the live set inside its band.
func TestFleetScriptBoundsLiveSet(t *testing.T) {
	live := map[string]bool{}
	for i, op := range genFleetScript(3, 3000, testFleetNodes(t)) {
		switch op.Kind {
		case "submit":
			live[op.Job.ID] = true
		case "cancel", "status":
			if !live[op.ID] {
				t.Fatalf("step %d: %s of job %s that is not live", i, op.Kind, op.ID)
			}
			if op.Kind == "cancel" {
				delete(live, op.ID)
			}
		}
		if len(live) > maxLive {
			t.Fatalf("step %d: %d live jobs, limit %d", i, len(live), maxLive)
		}
	}
}

// TestServeColdBodiesNeverRepeat: every cold request is a body no other
// request carries, so each one misses the response cache.
func TestServeColdBodiesNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range genServeSchedule(5, 20, hotSet()) {
		for _, r := range st.Reqs {
			if r.Hot >= 0 {
				continue
			}
			if seen[r.Body] {
				t.Fatalf("cold body repeats: %s", r.Body)
			}
			seen[r.Body] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("schedule has no cold requests")
	}
}

// TestGeneratorConnectionCap: under an offered rate far above what a
// slow server answers, the generator still opens at most nproc
// connections.
func TestGeneratorConnectionCap(t *testing.T) {
	var accepted atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte("{}"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()

	nproc := runtime.NumCPU()
	cl := newClient(srv.URL, nproc)
	defer cl.close()
	st := serveStep{Rate: 2000, Dur: 0.2}
	first := map[int][]byte{0: []byte("{}")}
	for i := 0; i < 400; i++ {
		st.Reqs = append(st.Reqs, serveReq{At: time.Duration(i) * 500 * time.Microsecond, Path: "/", Body: "{}", Hot: 0})
	}
	res := runStep(cl, st, nproc, first)
	if res.ok != len(st.Reqs) {
		t.Fatalf("%d of %d requests succeeded", res.ok, len(st.Reqs))
	}
	if n := accepted.Load(); n > int64(nproc) {
		t.Fatalf("server accepted %d connections, generator limit is %d", n, nproc)
	}
	if n := cl.dials.Load(); n > int64(nproc) {
		t.Fatalf("generator dialed %d connections, limit is %d", n, nproc)
	}
}

// TestSelfTime: a span's self time excludes the union of its children,
// overlapping children counted once.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Layer: "a", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "b", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "b", Start: 30, End: 50},
		{ID: 4, Parent: 1, Layer: "c", Start: 90, End: 120},
	}}
	self := tr.selfTimes()
	want := map[string]float64{"a": 50e-9, "b": 50e-9, "c": 30e-9}
	for k, v := range want {
		if d := self[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %g, want %g", k, self[k], v)
		}
	}
}

// TestWindowQuantiles: each request's latency lands in the window of
// its intended send time, whatever order the requests finished in.
func TestWindowQuantiles(t *testing.T) {
	st := serveStep{Dur: float64(serveWindows)}
	var lat []float64
	for w := 0; w < serveWindows; w++ {
		for k := 0; k < 10; k++ {
			st.Reqs = append(st.Reqs, serveReq{At: time.Duration(w)*time.Second + time.Duration(k)*time.Millisecond})
			lat = append(lat, float64(100*w+k))
		}
	}
	p50s, p90s := windowQuantiles(st, lat)
	if len(p50s) != serveWindows || len(p90s) != serveWindows {
		t.Fatalf("%d and %d windows, want %d", len(p50s), len(p90s), serveWindows)
	}
	for w := range p50s {
		if p50s[w] != float64(100*w+4) || p90s[w] != float64(100*w+8) {
			t.Errorf("window %d: p50 %g p90 %g, want %d and %d", w, p50s[w], p90s[w], 100*w+4, 100*w+8)
		}
	}
}

// TestQuantile pins the nearest-rank rule.
func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1} {
		if got := quantile(append([]float64(nil), xs...), q); got != want {
			t.Errorf("quantile(%g) = %g, want %g", q, got, want)
		}
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON: the metrics the program prints
// are exactly the ones BENCHMARK.json declares, with the same units.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	cmp := func(kind string, decl []metricDecl, got []struct{ Name, Unit string }) {
		if len(decl) != len(got) {
			t.Errorf("%s: program declares %d metrics, BENCHMARK.json %d", kind, len(decl), len(got))
			return
		}
		for i := range decl {
			if decl[i].name != got[i].Name || decl[i].unit != got[i].Unit {
				t.Errorf("%s[%d]: program %s/%s, BENCHMARK.json %s/%s", kind, i, decl[i].name, decl[i].unit, got[i].Name, got[i].Unit)
			}
		}
	}
	cmp("end_to_end", e2eMetrics, b.EndToEnd)
	cmp("per_layer", layerMetrics, b.PerLayer)
}
