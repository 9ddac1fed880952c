package semmodel

import (
	"sort"
	"strings"
	"testing"
)

// demarcationPoints returns the model's DPs sorted by reference.
func demarcationPoints(m *Model) []*Method {
	var out []*Method
	for _, e := range m.methods {
		if e.DP {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref < out[j].Ref })
	return out
}

// isDP reports whether ref is a modeled demarcation point.
func isDP(m *Model, ref string) bool {
	e := m.Lookup(ref)
	return e != nil && e.DP
}

func TestDefaultModelCoversCoreAPIs(t *testing.T) {
	m := Default()
	refs := []struct {
		ref  string
		kind Kind
	}{
		{"java.lang.StringBuilder.append", KAppend},
		{"java.lang.StringBuilder.toString", KToString},
		{"org.apache.http.client.HttpClient.execute", KExecuteDP},
		{"org.json.JSONObject.getString", KJSONGetStr},
		{"com.google.gson.Gson.fromJson", KGsonFromJSON},
		{"android.content.res.Resources.getString", KResGetString},
		{"android.media.MediaPlayer.setDataSource", KMediaSetSource},
		{"android.os.AsyncTask.execute", KAsyncExecute},
		{"java.net.URLEncoder.encode", KURLEncode},
	}
	for _, tt := range refs {
		e := m.Lookup(tt.ref)
		if e == nil {
			t.Errorf("model missing %s", tt.ref)
			continue
		}
		if e.Kind != tt.kind {
			t.Errorf("%s kind = %v, want %v", tt.ref, e.Kind, tt.kind)
		}
	}
}

func TestDemarcationPointInventoryMatchesPaper(t *testing.T) {
	m := Default()
	dps := demarcationPoints(m)
	// The paper's implementation uses 39 demarcation points from 16
	// classes (§4). Our model must be in that ballpark and include the
	// canonical execute() DP.
	if len(dps) < 15 || len(dps) > 45 {
		t.Fatalf("demarcation points = %d, want roughly the paper's 39", len(dps))
	}
	classes := map[string]bool{}
	for _, dp := range dps {
		classes[dp.Ref[:strings.LastIndexByte(dp.Ref, '.')]] = true
	}
	if got := len(classes); got < 10 {
		t.Fatalf("DP classes = %d, want >= 10 (paper: 16)", got)
	}
	if !isDP(m, "org.apache.http.client.HttpClient.execute") {
		t.Fatal("HttpClient.execute must be a DP")
	}
	if isDP(m, "java.lang.StringBuilder.append") {
		t.Fatal("StringBuilder.append must not be a DP")
	}
}

func TestDPRolesAreConsistent(t *testing.T) {
	m := Default()
	for _, dp := range demarcationPoints(m) {
		if dp.ReqArg < 0 && dp.CallbackMethod == "" && !dp.RespRet {
			t.Errorf("DP %s has neither request arg, callback, nor response", dp.Ref)
		}
		if dp.Kind == KEnqueueDP && dp.CallbackMethod == "" {
			t.Errorf("async DP %s lacks a callback method", dp.Ref)
		}
	}
}

func TestAsyncRegistrationsCarryCallbacks(t *testing.T) {
	m := Default()
	for _, ref := range []string{
		"android.os.AsyncTask.execute",
		"java.lang.Thread.start",
		"java.util.Timer.schedule",
	} {
		e := m.Lookup(ref)
		if e == nil || e.CallbackMethod == "" {
			t.Errorf("%s must carry an implicit callback method", ref)
		}
	}
}

func TestLookupUnknownReturnsNil(t *testing.T) {
	if Default().Lookup("com.unknown.Foo.bar") != nil {
		t.Fatal("unknown method should be unmodeled")
	}
}

func TestSinksAndSources(t *testing.T) {
	m := Default()
	if e := m.Lookup("android.media.MediaPlayer.setDataSource"); e == nil || e.Sink != "media" {
		t.Fatal("MediaPlayer.setDataSource must be a media sink")
	}
	if e := m.Lookup("android.media.AudioRecord.read"); e == nil || e.Source != "microphone" {
		t.Fatal("AudioRecord.read must be a microphone source")
	}
}
