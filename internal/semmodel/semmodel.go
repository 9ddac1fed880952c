// Package semmodel is the API semantic model of Extractocol (§3.2): a
// declarative description of the Android/Java APIs commonly used for HTTP
// protocol processing. Each modeled method carries a Kind describing its
// operational semantics. Three engines consume the same table:
//
//   - the taint engine derives forward/backward propagation rules,
//   - the signature builder interprets calls to reconstruct message formats,
//   - the interpreter (dynamic baseline) executes the same semantics.
//
// The model covers the paper's inventory: org.apache.http, java.net,
// android.net.http, com.android.volley, okhttp, retrofit, BeeFramework,
// rx.android, eight JSON/XML libraries (org.json, gson, jackson, org.xml,
// ...), containers, string/byte manipulation, Android resources, SQLite,
// and media/file sinks. Demarcation points (39 across 16 classes) separate
// request construction from response processing.
package semmodel

// Kind is the operational class of a modeled API method.
type Kind int

// Modeled method kinds.
const (
	// KOpaque is an unmodeled library method: conservatively, taint flows
	// from receiver and arguments to the return value.
	KOpaque Kind = iota

	// String construction.
	KStringBuilderInit    // new StringBuilder() / (String)
	KAppend               // sb.append(x) -> sb (receiver accumulates)
	KToString             // sb.toString() -> accumulated string
	KStringConcat         // s.concat(t) / String.+ -> new string
	KValueOf              // String.valueOf(x) / Integer.toString(x)
	KURLEncode            // URLEncoder.encode(s, enc)
	KPassThrough          // trim, toLowerCase, substring, intern...
	KStringEquals         // s.equals(t) -> bool
	KStringFormatIdentity // keeps argument 0's signature (e.g. Uri.parse)

	// HTTP request construction (client side).
	KHTTPReqInit      // new HttpGet/HttpPost/...(uri)
	KHTTPSetEntity    // request.setEntity(entity)
	KHTTPAddHeader    // request.addHeader(name, value)
	KStringEntityInit // new StringEntity(body)
	KFormEntityInit   // new UrlEncodedFormEntity(List<NameValuePair>)
	KNVPairInit       // new BasicNameValuePair(k, v)

	// Raw TCP sockets (§4 extension: "direct use of socket can be handled
	// by modeling socket APIs").
	KSocketInit // new Socket(host, port): a TCP request object

	// URLConnection style.
	KURLInit        // new URL(uri)
	KOpenConnection // url.openConnection() -> connection (request object)
	KConnSetMethod  // conn.setRequestMethod("POST")
	KConnSetHeader  // conn.setRequestProperty(k, v)
	KConnGetOutput  // conn.getOutputStream() -> request body stream
	KStreamWrite    // out.write(bytes/string)
	KConnGetInput   // DP: conn.getInputStream() -> response stream
	KReadStream     // read stream fully -> string

	// okhttp style.
	KOkRequestBuilder // new Request.Builder()
	KOkURL            // builder.url(uri) -> builder
	KOkPost           // builder.post(body) -> builder
	KOkHeader         // builder.header(k, v) -> builder
	KOkBuild          // builder.build() -> request
	KOkNewCall        // client.newCall(request) -> call
	KOkBodyCreate     // RequestBody.create(type, content)
	KRespBody         // response.body() / body().string()

	// Demarcation points and response access.
	KExecuteDP     // client.execute(request) -> response (sync DP)
	KEnqueueDP     // call.enqueue(callback) / queue.add(request): async DP
	KRespGetEntity // response.getEntity()
	KEntityContent // entity.getContent() / EntityUtils.toString(entity)
	KRespGetHeader // response.getFirstHeader(name)

	// JSON.
	KJSONInit     // new JSONObject()
	KJSONParse    // new JSONObject(string) / parser.parse(string)
	KJSONPut      // obj.put(key, val) -> obj
	KJSONGetStr   // obj.getString/optString(key)
	KJSONGetInt   // obj.getInt/optInt(key)
	KJSONGetBool  // obj.getBoolean(key)
	KJSONGetObj   // obj.getJSONObject(key)
	KJSONGetArr   // obj.getJSONArray(key)
	KJSONArrGet   // arr.getJSONObject(i) / arr.get(i)
	KJSONArrLen   // arr.length()
	KJSONToString // obj.toString() -> serialized body
	KGsonFromJSON // gson.fromJson(str, Class) -> typed object (reflection)
	KGsonToJSON   // gson.toJson(obj) -> string (reflection)

	// XML.
	KXMLParse  // parser.parse(string) -> document
	KXMLGetTag // doc.getElementsByTagName(tag) -> element
	KXMLGetAttr
	KXMLGetText

	// Containers.
	KListInit
	KListAdd
	KListGet
	KMapInit
	KMapPut
	KMapGet

	// Android platform semantics.
	KResGetString // Resources.getString(key): value known from the APK
	KDBInsert     // SQLiteDatabase.insert(table, values)
	KDBUpdate     // SQLiteDatabase.update(table, values)
	KDBQuery      // SQLiteDatabase.query(table, column) -> stored value
	KCVInit       // new ContentValues()
	KCVPut        // values.put(column, v)

	// Sinks (how network data is consumed, §2).
	KMediaSetSource // MediaPlayer.setDataSource(uri): DP + media sink
	KFileWrite      // FileOutputStream.write: file sink
	KUIDisplay      // TextView.setText: UI sink

	// Sources (where network-bound data originates, §2).
	KMicRead     // AudioRecord.read: microphone source
	KCameraRead  // Camera.takePicture: camera source
	KLocationGet // Location.getLatitude/getLongitude: location source
	KDeviceID    // TelephonyManager.getDeviceId: device identifier

	// Implicit control flow (threads / async, §3.4).
	KAsyncExecute  // AsyncTask.execute(args) -> doInBackground
	KThreadStart   // Thread.start() -> run
	KTimerSchedule // Timer.schedule(task, delay) -> task.run
	KHandlerPost   // Handler.post(runnable) -> runnable.run
	KFutureSubmit  // ExecutorService.submit(runnable)
	KRxSubscribe   // rx.Observable.subscribe(observer)

	// Intents: recognized but intentionally NOT modeled by the analyzer,
	// matching the paper's stated limitation (§4).
	KIntentSend

	// Stream decorators (gzip / chunked readers): the wrapper aliases the
	// wrapped stream, so reads and writes flow through transparently.
	KStreamWrap // new GZIPInputStream(in) / new BufferedReader(rdr) / ...

	// Multipart request bodies (org.apache.http.entity.mime).
	KMultipartCreate  // MultipartEntityBuilder.create() -> builder
	KMultipartAddPart // builder.addTextBody(name, value) -> builder
	KMultipartBuild   // builder.build() -> entity
)

// Role names the position of a method argument in Args (receiver included
// at index 0 for instance calls).
type Role int

// Method is one modeled API method.
type Method struct {
	Ref  string // fully qualified "Class.method"
	Kind Kind

	// DP marks demarcation points. ReqArg is the Args index holding the
	// request object (or URI string, for single-shot DPs); -1 if none.
	// RespRet marks the return value as the response object.
	DP      bool
	ReqArg  int
	RespRet bool

	// CallbackMethod names the method invoked implicitly on the callback
	// object for async registration calls ("run", "onResponse",
	// "doInBackground"). CallbackArg is the Args index holding the
	// callback receiver.
	CallbackMethod string
	CallbackArg    int

	// HTTPMethod is the request method implied by KHTTPReqInit classes.
	HTTPMethod string

	// Sink/Source classify data endpoints for consumption tracking.
	Sink   string // "media", "file", "ui"
	Source string // "microphone", "camera", "location", "device"
}

// Model is an indexed set of modeled methods.
type Model struct {
	methods map[string]*Method
}

// Lookup returns the model entry for a fully qualified method reference,
// or nil when the method is unmodeled.
func (m *Model) Lookup(ref string) *Method { return m.methods[ref] }

func (m *Model) add(e *Method) {
	if m.methods == nil {
		m.methods = map[string]*Method{}
	}
	if e.ReqArg == 0 && !e.DP {
		e.ReqArg = -1
	}
	m.methods[e.Ref] = e
}
