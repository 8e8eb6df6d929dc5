package vocab

import (
	"slices"
	"strings"

	"nakika/internal/script"
)

// maxXMLDepth bounds how deeply XML.parse nests elements and how deeply the
// tree walkers recurse; it is encoding/xml's own Unmarshal limit. A script
// can build a tree that is deeper, or cyclic, and a walker stops there.
const maxXMLDepth = 10000

// installXML defines the XML vocabulary: parse(text) returns a node tree,
// serialize(node) renders it back, and text/find/findAll read it, which is
// what the SIMM application's rendering relies on (Section 5.2: customized
// content represented as XML and rendered as HTML by a stylesheet that is
// the same for all students).
//
// Node objects have the shape { name, attrs: {..}, text, children: [..] },
// and they are the only tree: parse builds them in one pass, and the other
// functions walk them in place, so find and findAll return the nodes in the
// tree, not copies. Every node a walker visits costs the script one step,
// and a tree deeper than maxXMLDepth (a cyclic one is) throws.
func installXML(ctx *script.Context) {
	x := script.NewObject()
	x.ClassName = "XML"

	x.Set("parse", &script.Native{Name: "XML.parse", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return nil, script.ThrowString("XML.parse: missing document")
		}
		var text string
		switch b := args[0].(type) {
		case *script.ByteArray:
			text = string(b.Data)
		default:
			text = script.ToString(b)
		}
		node, err := parseXML(text)
		if err != nil {
			return nil, script.ThrowString("XML.parse: " + err.Error())
		}
		return node, nil
	}})

	x.Set("serialize", &script.Native{Name: "XML.serialize", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Str(""), nil
		}
		obj, ok := args[0].(*script.Object)
		if !ok {
			return nil, script.ThrowString("XML.serialize: expected a node object")
		}
		var sb strings.Builder
		if err := (xmlWalker{c, "XML.serialize"}).serialize(&sb, obj, 1); err != nil {
			return nil, err
		}
		return script.Str(sb.String()), nil
	}})

	x.Set("text", &script.Native{Name: "XML.text", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Str(""), nil
		}
		obj, ok := args[0].(*script.Object)
		if !ok {
			return script.Str(script.ToString(args[0])), nil
		}
		w := xmlWalker{c, "XML.text"}
		if !hasNode(nodeChildren(obj)) {
			// A leaf's text is its own string value, returned as it is.
			if err := w.visit(1); err != nil {
				return nil, err
			}
			if v, ok := obj.Get("text"); ok && v.Kind() == script.KindString {
				return v, nil
			}
			return script.Str(nodeText(obj)), nil
		}
		var sb strings.Builder
		_, err := w.each(obj, 1, func(n *script.Object) bool { sb.WriteString(nodeText(n)); return true })
		if err != nil {
			return nil, err
		}
		return script.Str(sb.String()), nil
	}})

	x.Set("find", &script.Native{Name: "XML.find", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) < 2 {
			return script.NullValue(), nil
		}
		obj, ok := args[0].(*script.Object)
		if !ok {
			return script.NullValue(), nil
		}
		name := script.ToString(args[1])
		var found script.Value = script.NullValue()
		_, err := (xmlWalker{c, "XML.find"}).each(obj, 1, func(n *script.Object) bool {
			if nodeName(n) != name {
				return true
			}
			found = n
			return false
		})
		if err != nil {
			return nil, err
		}
		return found, nil
	}})

	x.Set("findAll", &script.Native{Name: "XML.findAll", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		arr := script.NewArray()
		if len(args) < 2 {
			return arr, nil
		}
		obj, ok := args[0].(*script.Object)
		if !ok {
			return arr, nil
		}
		name := script.ToString(args[1])
		_, err := (xmlWalker{c, "XML.findAll"}).each(obj, 1, func(n *script.Object) bool {
			if nodeName(n) == name {
				arr.Elems = append(arr.Elems, n)
			}
			return true
		})
		if err != nil {
			return nil, err
		}
		return arr, nil
	}})

	x.Set("escape", &script.Native{Name: "XML.escape", Fn: func(c *script.Context, this script.Value, args []script.Value) (script.Value, error) {
		if len(args) == 0 {
			return script.Str(""), nil
		}
		return script.Str(EscapeXML(script.ToString(args[0]))), nil
	}})

	ctx.DefineGlobal("XML", x)
}

// xmlEscaper escapes the five predefined XML entities.
var xmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;")

// EscapeXML escapes the five predefined XML entities.
func EscapeXML(s string) string { return xmlEscaper.Replace(s) }

// A script node tree is read the way scripts build it: a missing or empty
// name reads as "node", a missing or nullish text as "", and a children
// entry that is not an object is not a node.

func nodeName(o *script.Object) string {
	if v, ok := o.Get("name"); ok {
		if name := script.ToString(v); name != "" {
			return name
		}
	}
	return "node"
}

func nodeText(o *script.Object) string {
	if v, ok := o.Get("text"); ok && !script.IsNullish(v) {
		return script.ToString(v)
	}
	return ""
}

func nodeChildren(o *script.Object) []script.Value {
	if v, ok := o.Get("children"); ok {
		if arr, ok := v.(*script.Array); ok {
			return arr.Elems
		}
	}
	return nil
}

func hasNode(children []script.Value) bool {
	for _, c := range children {
		if _, ok := c.(*script.Object); ok {
			return true
		}
	}
	return false
}

// xmlWalker walks a script node tree in place for the XML function fn.
type xmlWalker struct {
	c  *script.Context
	fn string
}

// visit accounts for one node at depth (the root's is 1): one script step,
// so MaxSteps and Terminate reach a walk over shared subtrees, and the
// depth bound, which stops a cyclic tree.
func (w xmlWalker) visit(depth int) error {
	if depth > maxXMLDepth {
		return script.ThrowString(w.fn + ": node tree too deep or cyclic")
	}
	return w.c.Charge()
}

// each calls fn on o and on every node below it, depth first in document
// order, for as long as fn returns true.
func (w xmlWalker) each(o *script.Object, depth int, fn func(*script.Object) bool) (more bool, err error) {
	if err := w.visit(depth); err != nil || !fn(o) {
		return false, err
	}
	for _, c := range nodeChildren(o) {
		if co, ok := c.(*script.Object); ok {
			if more, err := w.each(co, depth+1, fn); !more || err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// serialize renders o as markup, its attributes sorted by name.
func (w xmlWalker) serialize(sb *strings.Builder, o *script.Object, depth int) error {
	if err := w.visit(depth); err != nil {
		return err
	}
	name := nodeName(o)
	sb.WriteByte('<')
	sb.WriteString(name)
	if v, ok := o.Get("attrs"); ok {
		if attrs, ok := v.(*script.Object); ok {
			keys := attrs.Keys()
			slices.Sort(keys)
			for _, k := range keys {
				v, _ := attrs.Get(k)
				sb.WriteByte(' ')
				sb.WriteString(k)
				sb.WriteString(`="`)
				xmlEscaper.WriteString(sb, script.ToString(v))
				sb.WriteByte('"')
			}
		}
	}
	text, children := nodeText(o), nodeChildren(o)
	if text == "" && !hasNode(children) {
		sb.WriteString("/>")
		return nil
	}
	sb.WriteByte('>')
	xmlEscaper.WriteString(sb, text)
	for _, c := range children {
		if co, ok := c.(*script.Object); ok {
			if err := w.serialize(sb, co, depth+1); err != nil {
				return err
			}
		}
	}
	sb.WriteString("</")
	sb.WriteString(name)
	sb.WriteByte('>')
	return nil
}
