// Package httpsim provides the simulated server side of the evaluation:
// in-process HTTP servers (one per application backend), a virtual network
// routing requests by host, and a transaction recorder producing the
// traffic traces that the paper obtains with mitmproxy. Requests are
// routed in process by Network.RoundTrip; no socket is opened.
package httpsim

import (
	"fmt"
	"net/url"
	"strings"
	"sync"
)

// Request is an application-level HTTP request.
type Request struct {
	Method  string
	URL     string // absolute: scheme://host/path?query
	Headers map[string]string
	Body    string
}

// Host returns the request's host component.
func (r *Request) Host() string {
	u, err := url.Parse(r.URL)
	if err != nil {
		return ""
	}
	return u.Host
}

// Path returns the request's path component.
func (r *Request) Path() string {
	u, err := url.Parse(r.URL)
	if err != nil {
		return ""
	}
	return u.Path
}

// Query returns the parsed query string.
func (r *Request) Query() url.Values {
	u, err := url.Parse(r.URL)
	if err != nil {
		return url.Values{}
	}
	return u.Query()
}

// Response is an application-level HTTP response.
type Response struct {
	Status  int
	Headers map[string]string
	Body    string
	// Type labels the body representation: "json", "xml", "text", "binary".
	Type string
	// RouteID names the server route that produced the response; it is the
	// ground-truth grouping used when counting unique messages in traces.
	RouteID string
}

// JSON builds a 200 JSON response.
func JSON(body string) *Response {
	return &Response{Status: 200, Body: body, Type: "json",
		Headers: map[string]string{"Content-Type": "application/json"}}
}

// XML builds a 200 XML response.
func XML(body string) *Response {
	return &Response{Status: 200, Body: body, Type: "xml",
		Headers: map[string]string{"Content-Type": "text/xml"}}
}

// Text builds a 200 plain-text response.
func Text(body string) *Response {
	return &Response{Status: 200, Body: body, Type: "text",
		Headers: map[string]string{"Content-Type": "text/plain"}}
}

// Binary builds a 200 binary response (media bytes).
func Binary(body string) *Response {
	return &Response{Status: 200, Body: body, Type: "binary",
		Headers: map[string]string{"Content-Type": "application/octet-stream"}}
}

// Error builds an error response.
func Error(status int, msg string) *Response {
	return &Response{Status: status, Body: msg, Type: "text"}
}

// Handler computes a response for a request.
type Handler func(*Request) *Response

type route struct {
	id     string
	method string
	path   string // exact path or prefix ending in '/'
	prefix bool
	h      Handler
}

// Server is one simulated application backend, routing by method and path.
type Server struct {
	Hostname string
	routes   []route
}

// NewServer creates a backend for the given host.
func NewServer(host string) *Server { return &Server{Hostname: host} }

// Handle registers an exact-path route. The route ID is "METHOD host path".
func (s *Server) Handle(method, path string, h Handler) {
	s.routes = append(s.routes, route{
		id: method + " " + s.Hostname + path, method: method, path: path, h: h,
	})
}

// HandlePrefix registers a prefix route matching any path below prefix.
func (s *Server) HandlePrefix(method, prefix string, h Handler) {
	s.routes = append(s.routes, route{
		id: method + " " + s.Hostname + prefix + "*", method: method, path: prefix, prefix: true, h: h,
	})
}

// dispatch finds the most specific matching route.
func (s *Server) dispatch(req *Request) *Response {
	path := req.Path()
	var best *route
	for i := range s.routes {
		rt := &s.routes[i]
		if rt.method != req.Method {
			continue
		}
		if rt.prefix {
			if strings.HasPrefix(path, rt.path) {
				if best == nil || len(rt.path) > len(best.path) {
					best = rt
				}
			}
		} else if rt.path == path {
			best = rt
			break
		}
	}
	if best == nil {
		return &Response{Status: 404, Body: "not found", Type: "text", RouteID: ""}
	}
	resp := best.h(req)
	if resp == nil {
		resp = Error(500, "handler returned nil")
	}
	if resp.RouteID == "" {
		resp.RouteID = best.id
	}
	return resp
}

// Transaction is one recorded request/response exchange.
type Transaction struct {
	Seq      int
	Request  *Request
	Response *Response
}

// Network is a virtual internet: servers indexed by host plus a recorder.
type Network struct {
	mu      sync.Mutex
	servers map[string]*Server
	trace   []*Transaction
	// Pushes queues server-initiated content-update events per app package
	// (consumed by the interpreter's server-push handling).
	pushes map[string][]string
}

// NewNetwork creates an empty network.
func NewNetwork() *Network {
	return &Network{servers: map[string]*Server{}, pushes: map[string][]string{}}
}

// Register adds a server; it panics on duplicate hosts (a corpus bug).
func (n *Network) Register(s *Server) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.servers[s.Hostname]; dup {
		panic(fmt.Sprintf("httpsim: duplicate host %s", s.Hostname))
	}
	n.servers[s.Hostname] = s
}

// RoundTrip routes the request to the host's server and records the
// exchange in the trace.
func (n *Network) RoundTrip(req *Request) *Response {
	n.mu.Lock()
	srv := n.servers[req.Host()]
	n.mu.Unlock()
	var resp *Response
	if srv == nil {
		resp = &Response{Status: 502, Body: "no route to host " + req.Host(), Type: "text"}
	} else {
		resp = srv.dispatch(req)
	}
	n.mu.Lock()
	n.trace = append(n.trace, &Transaction{Seq: len(n.trace) + 1, Request: req, Response: resp})
	n.mu.Unlock()
	return resp
}

// Trace returns a copy of the recorded transactions in order.
func (n *Network) Trace() []*Transaction {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Transaction, len(n.trace))
	copy(out, n.trace)
	return out
}
