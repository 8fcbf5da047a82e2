package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// TestPlayerLayout holds a simulated player to 56 bytes on a 64-bit build: a
// world keeps one per player, so at ten million players each 8 bytes is 80 MB
// of resident set. A field added to Player is a decision; the failure prints
// the budget it broke, field by field.
func TestPlayerLayout(t *testing.T) {
	const want = 56
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("the budget is for 64-bit builds")
	}
	if got := unsafe.Sizeof(Player{}); got != want {
		var b strings.Builder
		typ := reflect.TypeOf(Player{})
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			fmt.Fprintf(&b, "\n  offset %3d  size %3d  %s %v", f.Offset, f.Type.Size(), f.Name, f.Type)
		}
		t.Fatalf("core.Player is %d bytes, budget %d:%s", got, want, b.String())
	}
}
