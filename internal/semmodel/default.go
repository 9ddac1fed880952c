package semmodel

// Default returns the built-in semantic model: the Android/Java HTTP
// surface the paper models (39 demarcation points drawn from 16 classes,
// plus string, container, JSON/XML, resource, database, sink, source and
// async APIs). A new API's semantics is one more add call here (the "easy
// plugin" extension point of §3.2).
func Default() *Model {
	m := &Model{}

	// --- StringBuilder / string manipulation -------------------------------
	for _, ref := range []string{
		"java.lang.StringBuilder.<init>",
		"java.lang.StringBuffer.<init>",
	} {
		m.add(&Method{Ref: ref, Kind: KStringBuilderInit})
	}
	for _, ref := range []string{
		"java.lang.StringBuilder.append",
		"java.lang.StringBuffer.append",
	} {
		m.add(&Method{Ref: ref, Kind: KAppend})
	}
	for _, ref := range []string{
		"java.lang.StringBuilder.toString",
		"java.lang.StringBuffer.toString",
	} {
		m.add(&Method{Ref: ref, Kind: KToString})
	}
	m.add(&Method{Ref: "java.lang.String.concat", Kind: KStringConcat})
	m.add(&Method{Ref: "java.lang.String.equals", Kind: KStringEquals})
	for _, ref := range []string{
		"java.lang.String.valueOf",
		"java.lang.Integer.toString",
		"java.lang.Long.toString",
		"java.lang.Boolean.toString",
	} {
		m.add(&Method{Ref: ref, Kind: KValueOf})
	}
	m.add(&Method{Ref: "java.net.URLEncoder.encode", Kind: KURLEncode})
	for _, ref := range []string{
		"java.lang.String.trim",
		"java.lang.String.toLowerCase",
		"java.lang.String.toUpperCase",
		"java.lang.String.intern",
		"java.lang.String.toString",
		"java.lang.Object.toString",
	} {
		m.add(&Method{Ref: ref, Kind: KPassThrough})
	}
	m.add(&Method{Ref: "android.net.Uri.parse", Kind: KStringFormatIdentity})

	// --- org.apache.http request construction ------------------------------
	httpInits := map[string]string{
		"org.apache.http.client.methods.HttpGet.<init>":    "GET",
		"org.apache.http.client.methods.HttpPost.<init>":   "POST",
		"org.apache.http.client.methods.HttpPut.<init>":    "PUT",
		"org.apache.http.client.methods.HttpDelete.<init>": "DELETE",
		"org.apache.http.client.methods.HttpHead.<init>":   "HEAD",
	}
	for ref, verb := range httpInits {
		m.add(&Method{Ref: ref, Kind: KHTTPReqInit, HTTPMethod: verb})
	}
	m.add(&Method{Ref: "org.apache.http.client.methods.HttpPost.setEntity", Kind: KHTTPSetEntity})
	m.add(&Method{Ref: "org.apache.http.client.methods.HttpPut.setEntity", Kind: KHTTPSetEntity})
	m.add(&Method{Ref: "org.apache.http.client.methods.HttpEntityEnclosingRequestBase.setEntity", Kind: KHTTPSetEntity})
	for _, cls := range []string{
		"org.apache.http.client.methods.HttpGet",
		"org.apache.http.client.methods.HttpPost",
		"org.apache.http.client.methods.HttpPut",
		"org.apache.http.client.methods.HttpDelete",
		"org.apache.http.client.methods.HttpUriRequest",
	} {
		m.add(&Method{Ref: cls + ".addHeader", Kind: KHTTPAddHeader})
		m.add(&Method{Ref: cls + ".setHeader", Kind: KHTTPAddHeader})
	}
	m.add(&Method{Ref: "org.apache.http.entity.StringEntity.<init>", Kind: KStringEntityInit})
	m.add(&Method{Ref: "org.apache.http.client.entity.UrlEncodedFormEntity.<init>", Kind: KFormEntityInit})
	m.add(&Method{Ref: "org.apache.http.message.BasicNameValuePair.<init>", Kind: KNVPairInit})

	// --- Demarcation points: org.apache.http (sync) ------------------------
	for _, ref := range []string{
		"org.apache.http.client.HttpClient.execute",
		"org.apache.http.impl.client.DefaultHttpClient.execute",
		"org.apache.http.impl.client.CloseableHttpClient.execute",
		"android.net.http.AndroidHttpClient.execute",
	} {
		m.add(&Method{Ref: ref, Kind: KExecuteDP, DP: true, ReqArg: 1, RespRet: true})
	}
	m.add(&Method{Ref: "org.apache.http.HttpResponse.getEntity", Kind: KRespGetEntity})
	m.add(&Method{Ref: "org.apache.http.HttpResponse.getFirstHeader", Kind: KRespGetHeader})
	m.add(&Method{Ref: "org.apache.http.HttpEntity.getContent", Kind: KEntityContent})
	m.add(&Method{Ref: "org.apache.http.util.EntityUtils.toString", Kind: KEntityContent})

	// --- Raw TCP sockets (§4 extension) --------------------------------------
	m.add(&Method{Ref: "java.net.Socket.<init>", Kind: KSocketInit})
	m.add(&Method{Ref: "java.net.Socket.getOutputStream", Kind: KConnGetOutput})
	m.add(&Method{Ref: "java.net.Socket.getInputStream", Kind: KConnGetInput,
		DP: true, ReqArg: 0, RespRet: true})

	// --- Demarcation points: java.net.HttpURLConnection ---------------------
	m.add(&Method{Ref: "java.net.URL.<init>", Kind: KURLInit})
	m.add(&Method{Ref: "java.net.URL.openConnection", Kind: KOpenConnection})
	m.add(&Method{Ref: "java.net.HttpURLConnection.setRequestMethod", Kind: KConnSetMethod})
	m.add(&Method{Ref: "java.net.HttpURLConnection.setRequestProperty", Kind: KConnSetHeader})
	m.add(&Method{Ref: "java.net.HttpURLConnection.getOutputStream", Kind: KConnGetOutput})
	m.add(&Method{Ref: "java.io.OutputStream.write", Kind: KStreamWrite})
	m.add(&Method{Ref: "java.io.OutputStreamWriter.write", Kind: KStreamWrite})
	for _, ref := range []string{
		"java.net.HttpURLConnection.getInputStream",
		"java.net.HttpURLConnection.getResponseCode",
		"java.net.URLConnection.getInputStream",
	} {
		m.add(&Method{Ref: ref, Kind: KConnGetInput, DP: true, ReqArg: 0, RespRet: true})
	}
	m.add(&Method{Ref: "java.io.InputStream.readAll", Kind: KReadStream})
	m.add(&Method{Ref: "java.io.BufferedReader.readLine", Kind: KReadStream})
	m.add(&Method{Ref: "android.util.StreamUtils.readFully", Kind: KReadStream})

	// --- Stream decorators (gzip / chunked transfer reading) -----------------
	for _, ref := range []string{
		"java.util.zip.GZIPInputStream.<init>",
		"java.util.zip.GZIPOutputStream.<init>",
		"java.io.InputStreamReader.<init>",
		"java.io.BufferedReader.<init>",
		"java.io.BufferedInputStream.<init>",
	} {
		m.add(&Method{Ref: ref, Kind: KStreamWrap})
	}

	// --- Multipart bodies (org.apache.http.entity.mime) ----------------------
	m.add(&Method{Ref: "org.apache.http.entity.mime.MultipartEntityBuilder.create", Kind: KMultipartCreate})
	m.add(&Method{Ref: "org.apache.http.entity.mime.MultipartEntityBuilder.addTextBody", Kind: KMultipartAddPart})
	m.add(&Method{Ref: "org.apache.http.entity.mime.MultipartEntityBuilder.addPart", Kind: KMultipartAddPart})
	m.add(&Method{Ref: "org.apache.http.entity.mime.MultipartEntityBuilder.build", Kind: KMultipartBuild})

	// --- okhttp (v2 com.squareup and v3 okhttp3) ----------------------------
	for _, pkg := range []string{"okhttp3", "com.squareup.okhttp"} {
		m.add(&Method{Ref: pkg + ".Request$Builder.<init>", Kind: KOkRequestBuilder})
		m.add(&Method{Ref: pkg + ".Request$Builder.url", Kind: KOkURL})
		m.add(&Method{Ref: pkg + ".Request$Builder.post", Kind: KOkPost})
		m.add(&Method{Ref: pkg + ".Request$Builder.header", Kind: KOkHeader})
		m.add(&Method{Ref: pkg + ".Request$Builder.addHeader", Kind: KOkHeader})
		m.add(&Method{Ref: pkg + ".Request$Builder.method", Kind: KConnSetMethod})
		m.add(&Method{Ref: pkg + ".Request$Builder.build", Kind: KOkBuild})
		m.add(&Method{Ref: pkg + ".OkHttpClient.newCall", Kind: KOkNewCall})
		m.add(&Method{Ref: pkg + ".RequestBody.create", Kind: KOkBodyCreate})
		m.add(&Method{Ref: pkg + ".Call.execute", Kind: KExecuteDP, DP: true, ReqArg: 0, RespRet: true})
		m.add(&Method{Ref: pkg + ".Call.enqueue", Kind: KEnqueueDP, DP: true, ReqArg: 0,
			CallbackMethod: "onResponse", CallbackArg: 1})
		m.add(&Method{Ref: pkg + ".Response.body", Kind: KRespGetEntity})
		m.add(&Method{Ref: pkg + ".ResponseBody.string", Kind: KEntityContent})
	}

	// --- volley --------------------------------------------------------------
	m.add(&Method{Ref: "com.android.volley.RequestQueue.add", Kind: KEnqueueDP, DP: true,
		ReqArg: 1, CallbackMethod: "onResponse", CallbackArg: 1})
	m.add(&Method{Ref: "com.android.volley.toolbox.JsonObjectRequest.<init>", Kind: KHTTPReqInit})
	m.add(&Method{Ref: "com.android.volley.toolbox.StringRequest.<init>", Kind: KHTTPReqInit})

	// --- retrofit -------------------------------------------------------------
	m.add(&Method{Ref: "retrofit2.Call.execute", Kind: KExecuteDP, DP: true, ReqArg: 0, RespRet: true})
	m.add(&Method{Ref: "retrofit2.Call.enqueue", Kind: KEnqueueDP, DP: true, ReqArg: 0,
		CallbackMethod: "onResponse", CallbackArg: 1})
	m.add(&Method{Ref: "retrofit2.Response.body", Kind: KRespGetEntity})

	// --- BeeFramework / rx.android -------------------------------------------
	m.add(&Method{Ref: "com.beeframework.BeeQuery.sendRequest", Kind: KExecuteDP, DP: true,
		ReqArg: 1, RespRet: true})
	m.add(&Method{Ref: "rx.android.HttpObservable.execute", Kind: KExecuteDP, DP: true,
		ReqArg: 1, RespRet: true})
	m.add(&Method{Ref: "rx.Observable.subscribe", Kind: KRxSubscribe,
		CallbackMethod: "onNext", CallbackArg: 1})

	// --- google-http-java-client ----------------------------------------------
	m.add(&Method{Ref: "com.google.api.client.http.HttpRequest.execute", Kind: KExecuteDP,
		DP: true, ReqArg: 0, RespRet: true})

	// --- JSON: org.json ----------------------------------------------------
	m.add(&Method{Ref: "org.json.JSONObject.<init>", Kind: KJSONInit})
	m.add(&Method{Ref: "org.json.JSONObject.parse", Kind: KJSONParse})
	m.add(&Method{Ref: "org.json.JSONObject.put", Kind: KJSONPut})
	m.add(&Method{Ref: "org.json.JSONObject.getString", Kind: KJSONGetStr})
	m.add(&Method{Ref: "org.json.JSONObject.optString", Kind: KJSONGetStr})
	m.add(&Method{Ref: "org.json.JSONObject.getInt", Kind: KJSONGetInt})
	m.add(&Method{Ref: "org.json.JSONObject.optInt", Kind: KJSONGetInt})
	m.add(&Method{Ref: "org.json.JSONObject.getBoolean", Kind: KJSONGetBool})
	m.add(&Method{Ref: "org.json.JSONObject.getJSONObject", Kind: KJSONGetObj})
	m.add(&Method{Ref: "org.json.JSONObject.getJSONArray", Kind: KJSONGetArr})
	m.add(&Method{Ref: "org.json.JSONObject.toString", Kind: KJSONToString})
	m.add(&Method{Ref: "org.json.JSONArray.getJSONObject", Kind: KJSONArrGet})
	m.add(&Method{Ref: "org.json.JSONArray.get", Kind: KJSONArrGet})
	m.add(&Method{Ref: "org.json.JSONArray.length", Kind: KJSONArrLen})

	// --- JSON: gson / jackson (reflection based) -----------------------------
	m.add(&Method{Ref: "com.google.gson.Gson.fromJson", Kind: KGsonFromJSON})
	m.add(&Method{Ref: "com.google.gson.Gson.toJson", Kind: KGsonToJSON})
	m.add(&Method{Ref: "com.fasterxml.jackson.databind.ObjectMapper.readValue", Kind: KGsonFromJSON})
	m.add(&Method{Ref: "com.fasterxml.jackson.databind.ObjectMapper.writeValueAsString", Kind: KGsonToJSON})

	// --- XML (org.xml / android.util.Xml) -----------------------------------
	m.add(&Method{Ref: "org.xml.sax.XMLReader.parse", Kind: KXMLParse})
	m.add(&Method{Ref: "android.util.Xml.parse", Kind: KXMLParse})
	m.add(&Method{Ref: "javax.xml.parsers.DocumentBuilder.parse", Kind: KXMLParse})
	m.add(&Method{Ref: "org.w3c.dom.Document.getElementsByTagName", Kind: KXMLGetTag})
	m.add(&Method{Ref: "org.w3c.dom.Element.getElementsByTagName", Kind: KXMLGetTag})
	m.add(&Method{Ref: "org.w3c.dom.Element.getAttribute", Kind: KXMLGetAttr})
	m.add(&Method{Ref: "org.w3c.dom.Element.getTextContent", Kind: KXMLGetText})

	// --- Containers -----------------------------------------------------------
	m.add(&Method{Ref: "java.util.ArrayList.<init>", Kind: KListInit})
	m.add(&Method{Ref: "java.util.ArrayList.add", Kind: KListAdd})
	m.add(&Method{Ref: "java.util.ArrayList.get", Kind: KListGet})
	m.add(&Method{Ref: "java.util.List.add", Kind: KListAdd})
	m.add(&Method{Ref: "java.util.List.get", Kind: KListGet})
	m.add(&Method{Ref: "java.util.HashMap.<init>", Kind: KMapInit})
	m.add(&Method{Ref: "java.util.HashMap.put", Kind: KMapPut})
	m.add(&Method{Ref: "java.util.HashMap.get", Kind: KMapGet})

	// --- Android resources and database --------------------------------------
	m.add(&Method{Ref: "android.content.res.Resources.getString", Kind: KResGetString})
	m.add(&Method{Ref: "android.database.sqlite.SQLiteDatabase.insert", Kind: KDBInsert})
	m.add(&Method{Ref: "android.database.sqlite.SQLiteDatabase.update", Kind: KDBUpdate})
	m.add(&Method{Ref: "android.database.sqlite.SQLiteDatabase.query", Kind: KDBQuery})
	m.add(&Method{Ref: "android.content.ContentValues.<init>", Kind: KCVInit})
	m.add(&Method{Ref: "android.content.ContentValues.put", Kind: KCVPut})

	// --- Sinks -----------------------------------------------------------------
	m.add(&Method{Ref: "android.media.MediaPlayer.setDataSource", Kind: KMediaSetSource,
		DP: true, ReqArg: 1, Sink: "media"})
	m.add(&Method{Ref: "android.webkit.WebView.loadUrl", Kind: KMediaSetSource,
		DP: true, ReqArg: 1, Sink: "webview"})
	m.add(&Method{Ref: "java.io.FileOutputStream.write", Kind: KFileWrite, Sink: "file"})
	m.add(&Method{Ref: "android.widget.TextView.setText", Kind: KUIDisplay, Sink: "ui"})
	m.add(&Method{Ref: "android.widget.ImageView.setImageBitmap", Kind: KUIDisplay, Sink: "ui"})

	// --- Sources ---------------------------------------------------------------
	m.add(&Method{Ref: "android.media.AudioRecord.read", Kind: KMicRead, Source: "microphone"})
	m.add(&Method{Ref: "android.hardware.Camera.takePicture", Kind: KCameraRead, Source: "camera"})
	m.add(&Method{Ref: "android.location.Location.getLatitude", Kind: KLocationGet, Source: "location"})
	m.add(&Method{Ref: "android.location.Location.getLongitude", Kind: KLocationGet, Source: "location"})
	m.add(&Method{Ref: "android.telephony.TelephonyManager.getDeviceId", Kind: KDeviceID, Source: "device"})

	// --- Implicit control flow (threads, async, §3.4) ---------------------------
	m.add(&Method{Ref: "android.os.AsyncTask.execute", Kind: KAsyncExecute,
		CallbackMethod: "doInBackground", CallbackArg: 0})
	m.add(&Method{Ref: "java.lang.Thread.start", Kind: KThreadStart,
		CallbackMethod: "run", CallbackArg: 0})
	m.add(&Method{Ref: "java.util.Timer.schedule", Kind: KTimerSchedule,
		CallbackMethod: "run", CallbackArg: 1})
	m.add(&Method{Ref: "android.os.Handler.post", Kind: KHandlerPost,
		CallbackMethod: "run", CallbackArg: 1})
	m.add(&Method{Ref: "java.util.concurrent.ExecutorService.submit", Kind: KFutureSubmit,
		CallbackMethod: "run", CallbackArg: 1})
	m.add(&Method{Ref: "java.util.concurrent.FutureTask.run", Kind: KThreadStart,
		CallbackMethod: "run", CallbackArg: 0})

	// --- Intents (recognized, deliberately unmodeled by the analyzer) -----------
	m.add(&Method{Ref: "android.content.Context.startActivity", Kind: KIntentSend})
	m.add(&Method{Ref: "android.content.Context.startService", Kind: KIntentSend})
	m.add(&Method{Ref: "android.content.Context.sendBroadcast", Kind: KIntentSend})

	return m
}
