package siglang

import (
	"testing"
	"testing/quick"
)

// Property: Merge is idempotent under canonical form.
func TestMergeIdempotent(t *testing.T) {
	f := func(lits []string, useInt bool) bool {
		parts := make([]Sig, 0, len(lits)+1)
		for _, l := range lits {
			parts = append(parts, Str(l))
		}
		if useInt {
			parts = append(parts, AnyInt())
		} else {
			parts = append(parts, AnyString())
		}
		s := Cat(parts...)
		return Canon(Merge(s, s)) == Canon(s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Disjoin produces a regex accepting everything its alternatives
// accept.
func TestDisjoinAcceptsAllAlternatives(t *testing.T) {
	f := func(a, b string) bool {
		s := Disjoin(Str(a), Str(b))
		re, err := Compile(s)
		if err != nil {
			return false
		}
		return re.MatchString(a) && re.MatchString(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVTypeStrings(t *testing.T) {
	cases := map[VType]string{VAny: "any", VString: "string", VInt: "int", VBool: "bool"}
	for v, want := range cases {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
		}
	}
}

func TestRepeatCollapsesNested(t *testing.T) {
	r := Repeat(Repeat(Str("x")))
	if _, ok := r.(*Rep); !ok {
		t.Fatalf("Repeat = %T", r)
	}
	if Canon(r) != Canon(Repeat(Str("x"))) {
		t.Fatal("nested repeat not collapsed")
	}
}

// objKeys returns o's constant keys in insertion order.
func objKeys(o *Obj) []string {
	var out []string
	for _, kv := range o.Pairs {
		if !kv.Dyn {
			out = append(out, kv.Key)
		}
	}
	return out
}

func TestObjPutDynAndKeys(t *testing.T) {
	o := &Obj{}
	o.Put("a", AnyInt())
	o.PutDyn(AnyString())
	o.Put("b", AnyString())
	keys := objKeys(o)
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v", keys)
	}
	if o.Get("missing") != nil {
		t.Fatal("Get(missing) != nil")
	}
}
