package httpsim

import (
	"strings"
	"sync"
	"testing"
)

func demoNetwork() *Network {
	n := NewNetwork()
	s := NewServer("api.example.com")
	s.Handle("GET", "/v1/status", func(r *Request) *Response {
		return JSON(`{"ok":true}`)
	})
	s.Handle("POST", "/v1/login", func(r *Request) *Response {
		if !strings.Contains(r.Body, "user=") {
			return Error(400, "missing user")
		}
		return JSON(`{"token":"T1"}`)
	})
	s.HandlePrefix("GET", "/media/", func(r *Request) *Response {
		return Binary("BYTES:" + r.Path())
	})
	n.Register(s)
	return n
}

func TestRoutingExactAndPrefix(t *testing.T) {
	n := demoNetwork()
	resp := n.RoundTrip(&Request{Method: "GET", URL: "https://api.example.com/v1/status"})
	if resp.Status != 200 || resp.Type != "json" {
		t.Fatalf("status resp = %+v", resp)
	}
	if resp.RouteID != "GET api.example.com/v1/status" {
		t.Fatalf("route id = %q", resp.RouteID)
	}
	resp = n.RoundTrip(&Request{Method: "GET", URL: "https://api.example.com/media/x/y.mp4"})
	if resp.Status != 200 || resp.RouteID != "GET api.example.com/media/*" {
		t.Fatalf("media resp = %+v", resp)
	}
}

func TestMethodMismatch404(t *testing.T) {
	n := demoNetwork()
	resp := n.RoundTrip(&Request{Method: "DELETE", URL: "https://api.example.com/v1/status"})
	if resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
}

func TestUnknownHost502(t *testing.T) {
	n := demoNetwork()
	resp := n.RoundTrip(&Request{Method: "GET", URL: "https://other.example.com/"})
	if resp.Status != 502 {
		t.Fatalf("status = %d, want 502", resp.Status)
	}
}

func TestTraceRecordsInOrder(t *testing.T) {
	n := demoNetwork()
	n.RoundTrip(&Request{Method: "GET", URL: "https://api.example.com/v1/status"})
	n.RoundTrip(&Request{Method: "POST", URL: "https://api.example.com/v1/login", Body: "user=a&passwd=b"})
	tr := n.Trace()
	if len(tr) != 2 || tr[0].Seq != 1 || tr[1].Seq != 2 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr[1].Response.RouteID != "POST api.example.com/v1/login" {
		t.Fatalf("route = %q", tr[1].Response.RouteID)
	}
}

func TestRequestAccessors(t *testing.T) {
	r := &Request{Method: "GET", URL: "https://h.example.com/a/b?x=1&y=2"}
	if r.Host() != "h.example.com" || r.Path() != "/a/b" {
		t.Fatalf("host=%q path=%q", r.Host(), r.Path())
	}
	if r.Query().Get("y") != "2" {
		t.Fatalf("query = %v", r.Query())
	}
}

func TestConcurrentRoundTrips(t *testing.T) {
	n := demoNetwork()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.RoundTrip(&Request{Method: "GET", URL: "https://api.example.com/v1/status"})
		}()
	}
	wg.Wait()
	if got := len(n.Trace()); got != 50 {
		t.Fatalf("trace entries = %d, want 50", got)
	}
}

func TestDuplicateHostPanics(t *testing.T) {
	n := NewNetwork()
	n.Register(NewServer("dup.example.com"))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate host")
		}
	}()
	n.Register(NewServer("dup.example.com"))
}
