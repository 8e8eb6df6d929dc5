package vocab

import (
	"slices"
	"testing"

	"nakika/internal/httpmsg"
	"nakika/internal/script"
)

// TestResponseToScriptHeaderOrder: the headers object a script gets from
// Cache.get or Fetch.get lists one reply's fields in the same order on every
// call, so a script that iterates it sees one order.
func TestResponseToScriptHeaderOrder(t *testing.T) {
	resp := httpmsg.NewHTMLResponse(200, "<p>hi</p>")
	resp.Header.Set("Cache-Control", "max-age=60")
	resp.Header.Set("Etag", `"v1"`)
	keys := func() []string {
		headers, _ := responseToScript(resp.Clone()).Get("headers")
		return headers.(*script.Object).Keys()
	}
	want := keys()
	if len(want) != 4 {
		t.Fatalf("headers %v, want 4 fields", want)
	}
	for i := 0; i < 20; i++ {
		if got := keys(); !slices.Equal(got, want) {
			t.Fatalf("conversion %d lists the headers as %v, the first as %v", i, got, want)
		}
	}
}
