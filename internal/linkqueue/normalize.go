package linkqueue

import (
	"net/url"
	"strings"
)

// Normalize canonicalizes a link URL for deduplication. RFC 3986 §6.2.2-3
// syntax-based normalization: the scheme and host are case-insensitive, and
// the default port of a scheme is equivalent to no port at all — so
// "HTTP://Host:80/x" and "http://host/x" name the same document. Without
// this, an adversarial pod can re-trigger a fetch of an already-visited
// document arbitrarily often by emitting spoofed case/port variants of its
// URL (the IRI-spoofing attack class of the LTQP security analysis), and a
// traversal loop through such variants never terminates.
//
// Only the scheme, host case and default ports are touched: paths stay
// byte-exact (they are case-sensitive on most servers), and anything that
// does not parse as a URL is returned unchanged — normalization must never
// make two genuinely distinct documents collide.
func Normalize(raw string) string {
	key, _ := Key(raw)
	return key
}

// Key returns Normalize(raw) together with whether raw parses as a URL with
// a host, which is what a link needs to be worth queueing at all. Link
// tables call it once per document version for every IRI a document
// mentions, so URLs already in canonical form — the overwhelming majority —
// are recognized by one pass over their bytes instead of a url.Parse.
func Key(raw string) (key string, ok bool) {
	if canonicalHTTP(raw) {
		return raw, true
	}
	return parsedKey(raw)
}

// parsedKey is Key without the shortcut.
func parsedKey(raw string) (key string, ok bool) {
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return raw, false
	}
	u.Scheme = strings.ToLower(u.Scheme) // Parse lowercases it already; keep explicit
	host := strings.ToLower(u.Host)
	switch {
	case u.Scheme == "http" && strings.HasSuffix(host, ":80"):
		host = strings.TrimSuffix(host, ":80")
	case u.Scheme == "https" && strings.HasSuffix(host, ":443"):
		host = strings.TrimSuffix(host, ":443")
	}
	u.Host = host
	if n := u.String(); n != raw {
		return n, true
	}
	return raw, true
}

// canonicalHTTP reports whether raw is certainly its own normal form: a
// lowercase http(s) scheme, a non-empty host of lowercase letters, digits,
// dots and hyphens, an optional non-default numeric port, and a path of
// unreserved characters and slashes — nothing url.Parse could reject,
// re-escape or lowercase. It is deliberately narrow: anything else (a query,
// an escape, a userinfo, an IPv6 literal) takes the parsing path in Key.
func canonicalHTTP(raw string) bool {
	var rest, defaultPort string
	switch {
	case strings.HasPrefix(raw, "http://"):
		rest, defaultPort = raw[len("http://"):], "80"
	case strings.HasPrefix(raw, "https://"):
		rest, defaultPort = raw[len("https://"):], "443"
	default:
		return false
	}
	i := 0
	for ; i < len(rest); i++ {
		c := rest[i]
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '-') {
			break
		}
	}
	if i == 0 {
		return false
	}
	if i < len(rest) && rest[i] == ':' {
		start := i + 1
		for i = start; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		}
		if port := rest[start:i]; port == "" || port == defaultPort {
			return false
		}
	}
	if i < len(rest) && rest[i] != '/' {
		return false
	}
	for ; i < len(rest); i++ {
		c := rest[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '/' || c == '.' || c == '-' || c == '_' || c == '~') {
			return false
		}
	}
	return true
}

// Origin extracts a URL's origin (scheme://host, normalized, default ports
// stripped) — the unit of the traversal engine's per-origin budgets and
// queue fairness. URLs that do not parse share the synthetic origin
// "invalid://", so malformed links cannot dodge origin accounting by being
// unparseable.
func Origin(raw string) string {
	u, err := url.Parse(raw)
	if err != nil || u.Host == "" {
		return "invalid://"
	}
	scheme := strings.ToLower(u.Scheme)
	host := strings.ToLower(u.Host)
	switch {
	case scheme == "http" && strings.HasSuffix(host, ":80"):
		host = strings.TrimSuffix(host, ":80")
	case scheme == "https" && strings.HasSuffix(host, ":443"):
		host = strings.TrimSuffix(host, ":443")
	}
	return scheme + "://" + host
}
