package sigvm

import (
	"strings"

	"extractocol/internal/intern"
	"extractocol/internal/siglang"
)

// QueryProg is a compiled query/form-body matcher: the signature's
// constant keys interned into the bundle's symbol table and held as a
// dense bitset, replacing the map[string]bool MatchQuery rebuilds (and
// sorts) on every call.
type QueryProg struct {
	known    *intern.Bits
	hasKnown bool // the signature names at least one key
}

func (b *Bundle) compileQuery(s siglang.Sig) *QueryProg {
	p := &QueryProg{known: intern.NewBits(0)}
	for _, k := range siglang.Keywords(s) {
		p.known.Add(b.syms.Intern(k))
		p.hasKnown = true
	}
	return p
}

// matchQuery is the oracle's MatchQuery on a compiled program: identical pair
// splitting, separator accounting, and verdict rule ("every known-keyed
// pair matched, or the signature knows no keys at all"), with the key
// membership test a symbol lookup instead of a rebuilt map.
func (b *Bundle) matchQuery(p *QueryProg, query string) (bool, siglang.ByteStats) {
	var st siglang.ByteStats
	if query == "" {
		return true, st
	}
	rest := query
	for i := 0; ; i++ {
		pair := rest
		more := false
		if j := strings.IndexByte(rest, '&'); j >= 0 {
			pair, rest = rest[:j], rest[j+1:]
			more = true
		}
		sep := 0
		if i > 0 {
			sep = 1 // the '&'
		}
		k, v, found := strings.Cut(pair, "=")
		switch {
		case !found:
			st.None += len(pair) + sep
		case b.knows(p, k):
			st.Key += len(k) + 1 + sep // key, '=', '&'
			st.Value += len(v)
		default:
			st.None += len(pair) + sep
		}
		if !more {
			break
		}
	}
	return st.None == 0 || p.hasKnown, st
}

func (b *Bundle) knows(p *QueryProg, k string) bool {
	id, ok := b.syms.Lookup(k)
	return ok && p.known.Has(id)
}
