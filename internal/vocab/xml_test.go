package vocab

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"nakika/internal/apps/simm"
	"nakika/internal/script"
)

// oracleNode is an element as encoding/xml's decoder reads it.
type oracleNode struct {
	Name     string
	Attrs    [][2]string // sorted by name
	Text     string
	Children []*oracleNode
}

// oracleParseXML is the decode loop XML.parse ran on encoding/xml before
// it had its own scanner: the reference FuzzXMLParse holds parseXML to.
// depth is the deepest nesting it met, trailing elements included.
func oracleParseXML(text string) (root *oracleNode, depth int, err error) {
	dec := xml.NewDecoder(strings.NewReader(text))
	var stack []*oracleNode
	for {
		tok, err := dec.Token()
		if err != nil {
			if err == io.EOF || root != nil && len(stack) == 0 {
				break
			}
			return nil, depth, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			node := &oracleNode{Name: t.Name.Local}
			attrs := make(map[string]string)
			for _, a := range t.Attr {
				attrs[a.Name.Local] = a.Value
			}
			for k, v := range attrs {
				node.Attrs = append(node.Attrs, [2]string{k, v})
			}
			sort.Slice(node.Attrs, func(i, j int) bool { return node.Attrs[i][0] < node.Attrs[j][0] })
			if len(stack) > 0 {
				parent := stack[len(stack)-1]
				parent.Children = append(parent.Children, node)
			} else if root == nil {
				root = node
			}
			stack = append(stack, node)
			depth = max(depth, len(stack))
		case xml.EndElement:
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) > 0 && strings.TrimSpace(string(t)) != "" {
				stack[len(stack)-1].Text += string(t)
			}
		}
	}
	if root == nil {
		return nil, depth, errors.New("no document element")
	}
	return root, depth, nil
}

// oracleFromScript reads a node object tree into the oracle's shape,
// failing if any node's keys are not exactly name, attrs, text, children.
func oracleFromScript(o *script.Object) (*oracleNode, error) {
	if keys := strings.Join(o.Keys(), ","); keys != "name,attrs,text,children" {
		return nil, fmt.Errorf("node keys %s", keys)
	}
	name, _ := o.Get("name")
	text, _ := o.Get("text")
	n := &oracleNode{Name: string(name.(script.String)), Text: string(text.(script.String))}
	attrs, _ := o.Get("attrs")
	for _, k := range attrs.(*script.Object).Keys() {
		v, _ := attrs.(*script.Object).Get(k)
		n.Attrs = append(n.Attrs, [2]string{k, string(v.(script.String))})
	}
	children, _ := o.Get("children")
	for _, c := range children.(*script.Array).Elems {
		cn, err := oracleFromScript(c.(*script.Object))
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cn)
	}
	return n, nil
}

// FuzzXMLParse holds XML.parse's scanner to encoding/xml: on every input
// both reject it, or both accept it with the same tree. The one input the
// scanner may reject and the decoder accept nests deeper than maxXMLDepth.
func FuzzXMLParse(f *testing.F) {
	origin := simm.NewOrigin(simm.Config{})
	for _, doc := range []string{
		origin.SectionXML(1, 1, "alice"),
		origin.SectionXML(3, 2, "maria"),
		`<module id="m1"><title>Aortic Aneurysm</title><section n="1"><p>Presentation</p></section><section n="2"><p>Treatment</p></section></module>`,
		`<a x="1"><b>hi</b><b>there</b><c/></a>`,
		"<a>one\r\ntwo\rthree\r\r\n</a>",
		"<a x='\r\n'>\r</a>",
		"<a><![CDATA[x < y && ]] > ]]]></a>",
		"<a><![CDATA[\r\n]]>t<![CDATA[]]></a>",
		"<!-- c --><a><!----><!-- - -->x</a><!-- d -->",
		"<a><!-- a -- b --></a>",
		"<a><!---></a>",
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?><?pi data?><a><?x?></a>",
		"<?xml version='1.1'?><a/>",
		"<?xml encoding=\"latin1\"?><a/>",
		"<a/><?xml version=\"2\"?>",
		`<!DOCTYPE a [ <!ENTITY e "x>y"> <!-- < --> <!ELEMENT a ANY> ]><a>&lt;</a>`,
		"<!DOCTYPE <a>><a/>",
		"<a><!FOO bar></a>",
		`<p:a xmlns:p="urn:p" p:x="1" x="2" y="3"><q:b/><:c/></p:a>`,
		"<a:b:c/>",
		"<a xmlns='urn:x'><b xmlns:y='urn:y' y:z='1'/></a>",
		"<a>&#65;&#x42;&#x0043;&#0;</a>",
		"<a>&#xD800;&#x10FFFF;&#x110000;</a>",
		"<a>&amp;&lt;&gt;&apos;&quot;</a>",
		"<a>&nbsp;</a>",
		"<a>&amp</a>",
		"<a>& </a>",
		"<a>\xff</a>",
		"<a>\xef\xbf\xbe</a>",
		"<a \xc3\xa9='1'><\xc3\xa9/><b\xcc\x80/></a>",
		"<a>]]></a>",
		"<a x=']]>'/>",
		"<a>x</a><b>y</b>",
		"<a/><b><c></b>",
		"<a/></b>",
		"<a/>&bad;",
		"<a></a  ><b/ >",
		"<a x=1/>",
		`<a x="<"/>`,
		`<a x="1"y="2"/>`,
		"<a><b></a></b>",
		"<a>  </a>",
		"\ufeff<a/>",
		"just text",
		"",
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		want, depth, wantErr := oracleParseXML(doc)
		got, gotErr := parseXML(doc)
		switch {
		case wantErr != nil && gotErr != nil:
		case wantErr != nil:
			t.Fatalf("parseXML(%q) accepted what encoding/xml rejects: %v", doc, wantErr)
		case gotErr != nil:
			if depth > maxXMLDepth {
				return
			}
			t.Fatalf("parseXML(%q) rejected what encoding/xml accepts: %v", doc, gotErr)
		default:
			tree, err := oracleFromScript(got)
			if err != nil {
				t.Fatalf("parseXML(%q): %v", doc, err)
			}
			if !reflect.DeepEqual(tree, want) {
				t.Fatalf("parseXML(%q) = %s, encoding/xml reads %s", doc, dumpOracle(tree), dumpOracle(want))
			}
		}
	})
}

func dumpOracle(n *oracleNode) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "<%s %q %q>", n.Name, n.Attrs, n.Text)
	for _, c := range n.Children {
		sb.WriteString(dumpOracle(c))
	}
	return sb.String() + "</>"
}

// TestXMLNameTablesMatchEncodingXML reads encoding/xml's name classes back
// from its decoder for every rune of the Basic Multilingual Plane (its
// tables hold no other) and checks isXMLName against them.
func TestXMLNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(doc string) bool {
		_, _, err := oracleParseXML(doc)
		return err == nil
	}
	for r := rune(0); r <= 0x10FFFF; r++ {
		if r > 0xFFFF && r%251 != 0 || !utf8.ValidRune(r) {
			continue
		}
		c := string(r)
		if got, want := isXMLName(c), accepts("<"+c+"/>"); got != want {
			t.Errorf("isXMLName(%U) = %v, encoding/xml %v", r, got, want)
		}
		if got, want := isXMLName("a"+c), accepts("<a"+c+"/>"); got != want && !strings.ContainsRune(" \t\r\n", r) {
			t.Errorf("isXMLName(a%U) = %v, encoding/xml %v", r, got, want)
		}
	}
}

// TestXMLSerializeGolden pins XML.serialize's output byte for byte, as it
// was before the walkers worked on the script tree in place: a parsed
// document, and a hand-built tree with every defaulting rule.
func TestXMLSerializeGolden(t *testing.T) {
	ctx := newTestEnv(newRecordingHost())
	for src, want := range map[string]string{
		`XML.serialize(XML.parse('<module id="m1"><title>Aortic Aneurysm</title><section n="1"><p>Presentation</p></section><section n="2"><p>Treatment</p></section></module>'))`: `<module id="m1"><title>Aortic Aneurysm</title><section n="1"><p>Presentation</p></section><section n="2"><p>Treatment</p></section></module>`,
		`XML.serialize(XML.parse('<a x="1"><b>hi</b><b>there</b><c/></a>'))`: `<a x="1"><b>hi</b><b>there</b><c/></a>`,
		`XML.serialize({name: "r", attrs: {z: "q\"<&'>", a: 1}, text: "a<b & 'c' \"d\" >", children: [{}, 3, {name: "", text: null, attrs: {b: "x", a: "y"}}, {name: "k", children: [{name: "m", text: 0}]}]})`: `<r a="1" z="q&quot;&lt;&amp;&apos;&gt;">a&lt;b &amp; &apos;c&apos; &quot;d&quot; &gt;<node/><node a="y" b="x"/><k><m>0</m></k></r>`,
	} {
		if got := script.ToString(run(t, ctx, src)); got != want {
			t.Errorf("%s\n got %s\nwant %s", src, got, want)
		}
	}
}

// TestXMLFindReturnsTreeNodes pins that find and findAll hand back the
// nodes in the tree, as a DOM does: a change through one shows in the tree.
func TestXMLFindReturnsTreeNodes(t *testing.T) {
	ctx := newTestEnv(newRecordingHost())
	v := run(t, ctx, `
		var doc = XML.parse("<a><b>one</b><c><b>two</b></c></a>");
		XML.find(doc, "c").attrs.seen = "yes";
		var bs = XML.findAll(doc, "b");
		bs[1].text = "TWO";
		(XML.find(doc, "b") === doc.children[0]) + " " + XML.serialize(doc)
	`)
	if got, want := script.ToString(v), `true <a><b>one</b><c seen="yes"><b>TWO</b></c></a>`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestXMLDepthLimit: XML.parse nests at most maxXMLDepth elements, and a
// tree it returns can be walked by every function.
func TestXMLDepthLimit(t *testing.T) {
	nested := func(n int) string {
		return strings.Repeat("<a>", n-1) + "<a>x</a>" + strings.Repeat("</a>", n-1)
	}
	if _, err := parseXML(nested(maxXMLDepth + 1)); err == nil {
		t.Fatalf("a document %d elements deep parsed", maxXMLDepth+1)
	}
	ctx := newTestEnv(newRecordingHost())
	ctx.DefineGlobal("doc", script.Str(nested(maxXMLDepth)))
	v := run(t, ctx, `
		var d = XML.parse(doc);
		XML.text(d) + XML.findAll(d, "a").length + (XML.find(d, "b") === null) + XML.serialize(d).length
	`)
	if got, want := script.ToString(v), fmt.Sprintf("x%dtrue%d", maxXMLDepth, 7*maxXMLDepth+1); got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// hostileTrees are node trees a script can build that no document parses
// to: one that contains itself, and one 40 levels deep whose every node
// holds one subtree twice, so that a walk visits 2^41 nodes.
const hostileTrees = `
	var cyclic = {name: "a", children: []};
	cyclic.children.push(cyclic);
	var shared = {name: "leaf"};
	for (var i = 0; i < 40; i++) { shared = {name: "a", children: [shared, shared]}; }
`

// TestXMLWalkersStopOnHostileTrees: on a cyclic tree every walker throws,
// and on a tree of shared subtrees it stops at the step limit, where it
// once recursed until the Go stack overflowed or walked for hours.
func TestXMLWalkersStopOnHostileTrees(t *testing.T) {
	for _, call := range []string{`XML.text(%s)`, `XML.find(%s, "zz")`, `XML.findAll(%s, "zz")`, `XML.serialize(%s)`} {
		ctx := script.NewContext(script.Limits{MaxSteps: 200_000})
		Install(ctx, newRecordingHost(), "example.org")
		run(t, ctx, hostileTrees)

		src := fmt.Sprintf(`var msg = ""; try { `+call+` } catch (e) { msg = e; } msg`, "cyclic")
		if got := script.ToString(run(t, ctx, src)); !strings.HasSuffix(got, ": node tree too deep or cyclic") || !strings.HasPrefix(got, "XML.") {
			t.Errorf("%s threw %q", src, got)
		}

		ctx.Reset()
		src = fmt.Sprintf(call, "shared")
		if _, err := ctx.RunSource(src, "hostile.js"); !errors.Is(err, script.ErrStepLimit) {
			t.Errorf("%s: %v, want the step limit", src, err)
		}
	}
}

// TestXMLWalkTerminates: with no step limit, Terminate still reaches a
// walk over shared subtrees.
func TestXMLWalkTerminates(t *testing.T) {
	ctx := newTestEnv(newRecordingHost())
	run(t, ctx, hostileTrees)
	done := make(chan error, 1)
	go func() {
		_, err := ctx.RunSource(`XML.findAll(shared, "zz")`, "hostile.js")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	ctx.Terminate()
	select {
	case err := <-done:
		if !errors.Is(err, script.ErrTerminated) {
			t.Errorf("walk ended with %v, want ErrTerminated", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Terminate did not stop the walk")
	}
}
