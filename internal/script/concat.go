package script

import (
	"slices"
	"unsafe"
)

// String + appends in place. A script builds a page as
//
//	html += "<div>" + text + "</div>";
//
// and with Go's + each step copies everything before it: the page costs the
// square of its length in garbage. Instead a context keeps the byte buffers
// of its few most recent concatenation results. When the left operand is
// exactly a buffer's used prefix (it is the latest result built there, and
// nothing was appended since), the right operand is appended in the
// buffer's spare capacity and the result is the longer prefix.
//
// The invariant that makes this safe: bytes of a buffer that were handed out
// in a string are never written again. An append writes only past the used
// length, which no earlier result covers; a result that did not fit moves
// to a new buffer, and the old one is left to the strings that point into
// it. The buffers belong to one context: Reset drops them (a pooled context
// starts each run with none) and Fork does not copy them, so no two
// contexts ever append to one buffer. This file is the only use of unsafe
// under internal/ outside tests.

// concatSlots is how many recent results a context can extend: the page
// being built, the piece being built to add to it, and room for one more
// level of nesting.
const concatSlots = 4

// concatBuf is one buffer of concatenation results.
type concatBuf struct {
	buf  []byte
	used uint64 // the context's concatTick when last extended
}

// concat returns a + b.
func (ctx *Context) concat(a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	ctx.concatTick++
	oldest := 0
	for i := range ctx.concatBufs {
		c := &ctx.concatBufs[i]
		if len(c.buf) == len(a) && unsafe.SliceData(c.buf) == unsafe.StringData(a) {
			if cap(c.buf)-len(c.buf) < len(b) {
				// Twice the result, so a string grown step by step is
				// copied a logarithmic number of times.
				grown := make([]byte, len(a), 2*(len(a)+len(b)))
				copy(grown, a)
				c.buf = grown
			}
			return ctx.handOut(c, b)
		}
		if c.used < ctx.concatBufs[oldest].used {
			oldest = i
		}
	}
	// A new result starts in the least recently extended slot. Its buffer
	// takes the whole size class the allocator rounds it up to, which
	// often has room for the next piece.
	c := &ctx.concatBufs[oldest]
	c.buf = append(slices.Grow([]byte(nil), len(a)+len(b)), a...)
	return ctx.handOut(c, b)
}

// handOut appends b to c's buffer and returns the buffer's used bytes as a
// string, which from now on nothing writes.
func (ctx *Context) handOut(c *concatBuf, b string) string {
	c.buf = append(c.buf, b...)
	c.used = ctx.concatTick
	return unsafe.String(unsafe.SliceData(c.buf), len(c.buf))
}
