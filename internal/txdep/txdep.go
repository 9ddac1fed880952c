// Package txdep infers fine-grained dependencies between HTTP transactions
// (§3.3): whether objects derived from one transaction's response are used
// to construct another transaction's request, at field granularity. The
// carriers are heap fields, static fields, SQLite rows, and direct
// dataflow from a prior demarcation point's response within one handler.
package txdep

import (
	"fmt"
	"sort"
	"strings"

	"extractocol/internal/obs"
	"extractocol/internal/sigbuild"
)

// Tx is the analyzed view of one transaction consumed by the inference.
type Tx struct {
	ID   int
	DPID string // "method@index" of the demarcation point
	Req  *sigbuild.RequestSig
	Resp *sigbuild.ResponseSig
}

// Dep is one inferred dependency edge: request part ToPart of transaction
// To originates from response field FromField of transaction From, carried
// via Via (a heap location, database row, or direct dataflow "dp:...").
type Dep struct {
	From, To  int
	FromField string // response tree path ("" = whole body)
	ToPart    string // "uri", "body", "body:<field>", "header:<name>"
	Via       string
}

// Explain renders the edge as a human-readable provenance line for the
// explain layer, naming the destination part, the source field, and the
// carrier location.
func (d Dep) Explain() string {
	field := d.FromField
	if field == "" {
		field = "(whole body)"
	}
	return fmt.Sprintf("%s <- tx#%d response field %s via %s",
		d.ToPart, d.From, field, d.Via)
}

// Infer computes all dependency edges among the transactions.
func Infer(txs []*Tx) []Dep { return InferObs(txs, nil) }

// InferObs is Infer with workload counters: carrier locations indexed and
// dependency edges produced are recorded in stats when non-nil.
func InferObs(txs []*Tx, stats *obs.Shard) []Dep {
	// Index: which transaction's response wrote each carrier location, and
	// which transaction answers each DP site.
	writers := map[string][]*Tx{}
	byDP := map[string]*Tx{}
	for _, t := range txs {
		if t.Resp == nil {
			continue
		}
		byDP[t.DPID] = t
		for loc := range t.Resp.WriteOrigins {
			writers[loc] = append(writers[loc], t)
		}
	}

	var out []Dep
	add := func(to *Tx, part, dep string) {
		if site, path, ok := parseDPDep(dep); ok {
			if from, present := byDP[site]; present && from.ID != to.ID {
				out = append(out, Dep{From: from.ID, To: to.ID,
					FromField: path, ToPart: part, Via: "dp:" + site})
			}
			return
		}
		for _, from := range writers[dep] {
			if from.ID == to.ID {
				continue
			}
			out = append(out, Dep{From: from.ID, To: to.ID,
				FromField: from.Resp.WriteOrigins[dep], ToPart: part, Via: dep})
		}
	}

	for _, t := range txs {
		if t.Req == nil {
			continue
		}
		for _, d := range t.Req.URIDeps {
			add(t, "uri", d)
		}
		for _, d := range t.Req.BodyDeps {
			add(t, "body", d)
		}
		for field, ds := range t.Req.FieldDeps {
			for _, d := range ds {
				add(t, "body:"+field, d)
			}
		}
		for name, ds := range t.Req.HeaderDeps {
			for _, d := range ds {
				add(t, "header:"+name, d)
			}
		}
	}

	out = dedupe(out)
	stats.Add(obs.CtrTxdepCarriers, int64(len(writers)))
	stats.Add(obs.CtrTxdepEdges, int64(len(out)))
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		if out[i].ToPart != out[j].ToPart {
			return out[i].ToPart < out[j].ToPart
		}
		return out[i].Via < out[j].Via
	})
	return out
}

// parseDPDep splits "dp:<method>@<idx>:<path>" into site and path.
func parseDPDep(d string) (site, path string, ok bool) {
	if !strings.HasPrefix(d, "dp:") {
		return "", "", false
	}
	rest := d[3:]
	i := strings.LastIndex(rest, ":")
	if i < 0 {
		return rest, "", true
	}
	return rest[:i], rest[i+1:], true
}

func dedupe(deps []Dep) []Dep {
	seen := map[Dep]bool{}
	out := deps[:0]
	for _, d := range deps {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}
