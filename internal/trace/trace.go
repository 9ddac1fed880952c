// Package trace models captured HTTP traffic: serialization of recorded
// transactions, unique-message accounting against ground-truth routes,
// keyword extraction from payloads, and matching of traffic against
// Extractocol signatures with the byte-level statistics of Table 2.
package trace

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"strings"

	"extractocol/internal/httpsim"
)

// Entry is one serializable traffic-trace record.
type Entry struct {
	Seq        int               `json:"seq"`
	Method     string            `json:"method"`
	URL        string            `json:"url"`
	ReqHeaders map[string]string `json:"req_headers,omitempty"`
	ReqBody    string            `json:"req_body,omitempty"`
	Status     int               `json:"status"`
	RespType   string            `json:"resp_type"`
	RespBody   string            `json:"resp_body,omitempty"`
	RouteID    string            `json:"route_id"`
}

// FromNetwork converts recorded transactions into trace entries.
func FromNetwork(txs []*httpsim.Transaction) []Entry {
	out := make([]Entry, 0, len(txs))
	for _, t := range txs {
		out = append(out, Entry{
			Seq:        t.Seq,
			Method:     t.Request.Method,
			URL:        t.Request.URL,
			ReqHeaders: t.Request.Headers,
			ReqBody:    t.Request.Body,
			Status:     t.Response.Status,
			RespType:   t.Response.Type,
			RespBody:   t.Response.Body,
			RouteID:    t.Response.RouteID,
		})
	}
	return out
}

// Save writes a trace as JSON lines.
func Save(path string, entries []Entry) error {
	var b strings.Builder
	for _, e := range entries {
		data, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("trace: marshal: %w", err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// Load reads a JSON-lines trace.
func Load(path string) ([]Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("trace: parse: %w", err)
		}
		out = append(out, e)
	}
	return out, nil
}

// UniqueRoutes returns the distinct ground-truth route IDs observed (the
// grouping the paper performed manually on URI patterns), sorted.
func UniqueRoutes(entries []Entry) []string {
	set := map[string]bool{}
	for _, e := range entries {
		if e.RouteID != "" && e.Status < 400 {
			set[e.RouteID] = true
		}
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// CountByMethod tallies unique successful routes per HTTP method.
func CountByMethod(entries []Entry) map[string]int {
	perMethod := map[string]map[string]bool{}
	for _, e := range entries {
		if e.RouteID == "" || e.Status >= 400 {
			continue
		}
		if perMethod[e.Method] == nil {
			perMethod[e.Method] = map[string]bool{}
		}
		perMethod[e.Method][e.RouteID] = true
	}
	out := map[string]int{}
	for m, rs := range perMethod {
		out[m] = len(rs)
	}
	return out
}

// RequestKeywords extracts the constant protocol keywords of the request
// side of a trace: query-string keys (URL and body) and JSON body keys.
func RequestKeywords(entries []Entry) []string {
	set := map[string]bool{}
	for _, e := range entries {
		if e.Status >= 400 {
			continue
		}
		if u, err := url.Parse(e.URL); err == nil {
			for k := range u.Query() {
				set[k] = true
			}
		}
		collectBodyKeywords(e.ReqBody, set)
	}
	return sorted(set)
}

// ResponseKeywords extracts JSON keys and XML tags/attributes from the
// response bodies of a trace.
func ResponseKeywords(entries []Entry) []string {
	set := map[string]bool{}
	for _, e := range entries {
		if e.Status >= 400 {
			continue
		}
		switch e.RespType {
		case "json":
			collectJSONKeys([]byte(e.RespBody), set)
		case "xml":
			collectXMLNames(e.RespBody, set)
		}
	}
	return sorted(set)
}

func collectBodyKeywords(body string, set map[string]bool) {
	if body == "" {
		return
	}
	if json.Valid([]byte(body)) && strings.HasPrefix(strings.TrimSpace(body), "{") {
		collectJSONKeys([]byte(body), set)
		return
	}
	for _, pair := range strings.Split(body, "&") {
		if k, _, found := strings.Cut(pair, "="); found && k != "" {
			set[k] = true
		}
	}
}

func collectJSONKeys(data []byte, set map[string]bool) {
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		return
	}
	var walk func(any)
	walk = func(v any) {
		switch t := v.(type) {
		case map[string]any:
			for k, sub := range t {
				set[k] = true
				walk(sub)
			}
		case []any:
			for _, sub := range t {
				walk(sub)
			}
		}
	}
	walk(v)
}

func collectXMLNames(body string, set map[string]bool) {
	inTag := false
	var tag strings.Builder
	for i := 0; i < len(body); i++ {
		c := body[i]
		switch {
		case c == '<':
			inTag = true
			tag.Reset()
		case inTag && (c == '>' || c == ' ' || c == '/'):
			name := tag.String()
			if name != "" && name[0] != '?' && name[0] != '!' {
				set[name] = true
			}
			if c == ' ' {
				// Attributes follow: scan name=... pairs until '>'.
				j := i
				for j < len(body) && body[j] != '>' {
					j++
				}
				for _, part := range strings.Fields(body[i:j]) {
					if k, _, found := strings.Cut(part, "="); found {
						set[strings.TrimSpace(k)] = true
					}
				}
				i = j
			}
			inTag = false
		case inTag:
			tag.WriteByte(c)
		}
	}
}

func sorted(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
