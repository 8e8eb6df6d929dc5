// Package extensions holds the three Section 5.4 extensions as deployable
// NKScript sources. The runnable versions live under examples/; the bench
// harness reports their sizes against the paper's.
package extensions

// AnnotationsScript is the electronic post-it-note extension (Section 5.4,
// extension 1): hosted by a site outside the content producer, it rewrites
// request URLs to the original SIMMs and injects annotation markup into the
// HTML on the way back.
const AnnotationsScript = `
// Electronic annotations layered over another site's service.
var p = new Policy();
p.url = [ "annotations.example.org" ];
p.onRequest = function() {
	// Interpose on the original SIMMs: rewrite the request URL, keeping the
	// query string (it carries the student identity).
	var target = "http://simms.med.nyu.edu" + Request.path;
	if (Request.query != "") { target += "?" + Request.query; }
	Request.setURL(target);
};
p.onResponse = function() {
	var body = new ByteArray(), chunk;
	while (chunk = Response.read()) { body.append(chunk); }
	var html = body.toString();
	var user = Request.param("student");
	if (user == null) { user = "anonymous"; }
	var notes = State.get("notes:" + Request.path + ":" + user);
	var injected = "<div class='annotations'>";
	if (notes != null) {
		var list = JSON.parse(notes);
		for (var i = 0; i < list.length; i++) {
			injected += "<div class='post-it'>" + list[i] + "</div>";
		}
	}
	injected += "</div></body>";
	Response.write(html.replace("</body>", injected));
};
p.register();

// Posting a new annotation stores it in the site's hard state.
var post = new Policy();
post.url = [ "annotations.example.org/annotate" ];
post.method = [ "POST" ];
post.onRequest = function() {
	var user = Request.param("student");
	var target = Request.param("target");
	var key = "notes:" + target + ":" + user;
	var existing = State.get(key);
	var list = existing == null ? [] : JSON.parse(existing);
	var body = new ByteArray(), chunk;
	while (chunk = Request.read()) { body.append(chunk); }
	list.push(body.toString());
	State.put(key, JSON.stringify(list));
	Response.setHeader("Content-Type", "text/plain");
	Response.write("stored " + list.length + " notes");
};
post.register();
`

// TranscoderScript is the cell-phone image transcoding extension (Section
// 5.4, extension 2): Figure 2 generalized to cache transformed content and
// to select on the device's User-Agent.
const TranscoderScript = `
// Image transcoding for a 176x208 phone screen, with caching of the
// transformed content.
var SCREEN_W = 176;
var SCREEN_H = 208;
var p = new Policy();
p.headers = { "User-Agent": [ "(?i)nokia" ] };
p.onResponse = function() {
	var type = ImageTransformer.type(Response.contentType);
	if (type == null) { return; }
	var cacheKey = "phone-thumb:" + Request.url;
	var cached = Cache.get(cacheKey);
	if (cached != null) {
		Response.setHeader("Content-Type", "image/jpeg");
		Response.setHeader("X-Transcode-Cache", "hit");
		Response.write(cached.body);
		return;
	}
	var body = new ByteArray(), buff = null;
	while (buff = Response.read()) {
		body.append(buff);
	}
	var dim = ImageTransformer.dimensions(body, type);
	if (dim.x > SCREEN_W || dim.y > SCREEN_H) {
		var img;
		if (dim.x/SCREEN_W > dim.y/SCREEN_H) {
			img = ImageTransformer.transform(body, type, "jpeg", SCREEN_W, dim.y/dim.x*SCREEN_H);
		} else {
			img = ImageTransformer.transform(body, type, "jpeg", dim.x/dim.y*SCREEN_W, SCREEN_H);
		}
		Cache.put(cacheKey, img, 3600, "image/jpeg");
		Response.setHeader("Content-Type", "image/jpeg");
		Response.setHeader("Content-Length", img.length);
		Response.setHeader("X-Transcode-Cache", "miss");
		Response.write(img);
	}
};
p.register();
`

// BlacklistScript is the content-blocking extension (Section 5.4, extension
// 3): a static script reads a blacklist from a preconfigured URL and
// generates the code of a second stage that blocks each listed URL with the
// Figure 5 denial handler.
const BlacklistScript = `
// Blacklist-driven content blocking: generate a blocking stage from a
// blacklist published at a well-known URL.
var BLACKLIST_URL = "http://nakika.net/blacklist.txt";
var deny = function() { Request.terminate(403); };
var r = Fetch.get(BLACKLIST_URL);
if (r.status == 200) {
	var entries = r.body.toString().split("\n");
	for (var i = 0; i < entries.length; i++) {
		var entry = entries[i].trim();
		if (entry.length == 0 || entry.charAt(0) == "#") { continue; }
		var p = new Policy();
		p.url = [ entry ];
		p.onRequest = deny;
		p.register();
	}
}
`
