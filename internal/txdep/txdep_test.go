package txdep

import (
	"testing"

	"extractocol/internal/sigbuild"
	"extractocol/internal/siglang"
)

func mkResp(dpid string, origins map[string]string) *sigbuild.ResponseSig {
	return &sigbuild.ResponseSig{DPID: dpid, BodyKind: "json",
		JSON: &siglang.Obj{}, WriteOrigins: origins}
}

func TestInferHeapCarriedDependency(t *testing.T) {
	login := &Tx{ID: 1, DPID: "a.Login.go@5",
		Req:  &sigbuild.RequestSig{Method: "POST"},
		Resp: mkResp("a.Login.go@5", map[string]string{"f:a.Api.modhash": "modhash"}),
	}
	vote := &Tx{ID: 2, DPID: "a.Vote.go@9",
		Req: &sigbuild.RequestSig{Method: "POST",
			BodyDeps:  []string{"f:a.Api.modhash"},
			FieldDeps: map[string][]string{"uh": {"f:a.Api.modhash"}},
		},
	}
	deps := Infer([]*Tx{login, vote})
	foundField := false
	for _, d := range deps {
		if d.From == 1 && d.To == 2 && d.ToPart == "body:uh" && d.FromField == "modhash" {
			foundField = true
		}
	}
	if !foundField {
		t.Fatalf("deps = %+v", deps)
	}
}

func TestInferDirectDPDependency(t *testing.T) {
	a := &Tx{ID: 1, DPID: "m.H.run@3",
		Req:  &sigbuild.RequestSig{Method: "GET"},
		Resp: mkResp("m.H.run@3", nil)}
	b := &Tx{ID: 2, DPID: "m.H.run@9",
		Req: &sigbuild.RequestSig{Method: "GET", URIDeps: []string{"dp:m.H.run@3:url"}}}
	deps := Infer([]*Tx{a, b})
	if len(deps) != 1 || deps[0].From != 1 || deps[0].To != 2 ||
		deps[0].ToPart != "uri" || deps[0].FromField != "url" {
		t.Fatalf("deps = %+v", deps)
	}
}

func TestNoSelfDependency(t *testing.T) {
	a := &Tx{ID: 1, DPID: "m.H.run@3",
		Req:  &sigbuild.RequestSig{Method: "GET", URIDeps: []string{"f:m.X.tok"}},
		Resp: mkResp("m.H.run@3", map[string]string{"f:m.X.tok": "tok"})}
	if deps := Infer([]*Tx{a}); len(deps) != 0 {
		t.Fatalf("self-dependency reported: %+v", deps)
	}
}

func TestDedupe(t *testing.T) {
	a := &Tx{ID: 1, DPID: "d@1", Req: &sigbuild.RequestSig{},
		Resp: mkResp("d@1", map[string]string{"f:x.y": "k"})}
	b := &Tx{ID: 2, DPID: "d@2",
		Req: &sigbuild.RequestSig{
			URIDeps:  []string{"f:x.y"},
			BodyDeps: nil,
			FieldDeps: map[string][]string{
				"q": {"f:x.y", "f:x.y"},
			},
		}}
	deps := Infer([]*Tx{a, b})
	seen := map[Dep]bool{}
	for _, d := range deps {
		if seen[d] {
			t.Fatalf("duplicate dep %+v", d)
		}
		seen[d] = true
	}
}
