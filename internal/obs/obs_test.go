package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestPhaseAccumulates(t *testing.T) {
	c := NewCollector()
	end := c.Phase("slice")
	time.Sleep(time.Millisecond)
	end()
	end = c.Phase("slice")
	end()
	c.Phase("txdep")()

	p := c.Snapshot()
	if len(p.Phases) != 2 {
		t.Fatalf("phases = %d, want 2 (re-entry must accumulate)", len(p.Phases))
	}
	if p.Phases[0].Name != "slice" || p.Phases[1].Name != "txdep" {
		t.Fatalf("phase order = %v, want first-start order", p.Phases)
	}
	if p.phase("slice") < time.Millisecond {
		t.Fatalf("slice phase = %v, want >= 1ms", p.phase("slice"))
	}
}

// phase returns the recorded duration of the named phase (0 if absent).
func (p *Profile) phase(name string) time.Duration {
	for _, ph := range p.Phases {
		if ph.Name == name {
			return time.Duration(ph.DurationNS)
		}
	}
	return 0
}

func TestCountersAndGauges(t *testing.T) {
	c := NewCollector()
	c.Add("a", 2)
	c.Add("a", 3)
	c.Gauge("g", 0.5)
	p := c.Snapshot()
	if p.Counter("a") != 5 {
		t.Fatalf("counter a = %d, want 5", p.Counter("a"))
	}
	if p.Gauges["g"] != 0.5 {
		t.Fatalf("gauge g = %v, want 0.5", p.Gauges["g"])
	}
	if len(p.Counters) != 1 {
		t.Fatalf("counters = %v, want only a", p.Counters)
	}
}

func TestShardDrain(t *testing.T) {
	c := NewCollector()
	s := c.NewShard()
	s.Add("x", 7)
	if s.counts["x"] != 7 {
		t.Fatalf("shard count = %d", s.counts["x"])
	}
	c.Drain(s)
	c.Drain(s) // second drain is a no-op: the shard was reset
	if got := c.Snapshot().Counter("x"); got != 7 {
		t.Fatalf("drained counter = %d, want 7", got)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	c.Phase("p")()
	c.Add("x", 1)
	c.Gauge("g", 1)
	c.Drain(nil)
	if c.Snapshot() != nil {
		t.Fatal("nil collector must snapshot to nil")
	}

	var s *Shard
	s.Add("x", 1)

	var p *Profile
	if p.Counter("x") != 0 || p.HistNames() != nil {
		t.Fatal("nil profile accessors must be zero")
	}
	p.Merge(&Profile{TotalNS: 1}) // must not panic
}

// TestConcurrentShards exercises the worker-pool pattern under the race
// detector: N goroutines each own a shard, the coordinator drains after
// the pool joins, and direct Add/Gauge calls race against them safely.
func TestConcurrentShards(t *testing.T) {
	c := NewCollector()
	const workers, perWorker = 8, 1000
	shards := make([]*Shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shard := c.NewShard()
		shards[w] = shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				shard.Add("jobs", 1)
			}
			c.Add("direct", 1) // collector mutations are themselves safe
		}()
	}
	wg.Wait()
	for _, s := range shards {
		c.Drain(s)
	}
	p := c.Snapshot()
	if p.Counter("jobs") != workers*perWorker {
		t.Fatalf("jobs = %d, want %d", p.Counter("jobs"), workers*perWorker)
	}
	if p.Counter("direct") != workers {
		t.Fatalf("direct = %d, want %d", p.Counter("direct"), workers)
	}
}

func TestProfileMerge(t *testing.T) {
	a := &Profile{
		TotalNS:  100,
		Phases:   []PhaseProfile{{Name: "slice", DurationNS: 60}, {Name: "txdep", DurationNS: 10}},
		Counters: map[string]int64{"x": 1},
		Gauges:   map[string]float64{"u": 1.0},
	}
	b := &Profile{
		TotalNS:  300,
		Phases:   []PhaseProfile{{Name: "slice", DurationNS: 200}, {Name: "dedup", DurationNS: 5}},
		Counters: map[string]int64{"x": 2, "y": 3},
		Gauges:   map[string]float64{"u": 0.5},
	}
	a.Merge(b)
	if a.TotalNS != 400 {
		t.Fatalf("total = %d", a.TotalNS)
	}
	if a.phase("slice") != 260 || a.phase("txdep") != 10 || a.phase("dedup") != 5 {
		t.Fatalf("merged phases wrong: %+v", a.Phases)
	}
	if a.Counters["x"] != 3 || a.Counters["y"] != 3 {
		t.Fatalf("merged counters wrong: %v", a.Counters)
	}
	// Time-weighted gauge: (1.0*100 + 0.5*300) / 400 = 0.625.
	if got := a.Gauges["u"]; got < 0.624 || got > 0.626 {
		t.Fatalf("merged gauge = %v, want 0.625", got)
	}
}

func TestProfileJSONShape(t *testing.T) {
	c := NewCollector()
	c.Phase("validate")()
	c.Add("dp_sites", 3)
	data, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Profile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Phases) != 1 || back.Phases[0].Name != "validate" || back.Counter("dp_sites") != 3 {
		t.Fatalf("round-trip mismatch: %s", data)
	}
}
