//go:build go1.24

package vertsim

import (
	"context"
	"runtime"
	"testing"
	"time"
	"weak"

	"cliffguard/internal/designer"
)

// TestDesignerKeepsNoSession: the designer holds none of the sessions it
// opens, so a session dropped by its run is collected.
func TestDesignerKeepsNoSession(t *testing.T) {
	db, month, _, _ := r1Pool(t)
	d := NewDesigner(db, 2560<<20)
	s := d.Session().(*session)
	if _, err := s.Design(context.Background(), month); err != nil {
		t.Fatal(err)
	}
	w := weak.Make(s)
	s = nil
	for deadline := time.Now().Add(5 * time.Second); w.Value() != nil; {
		runtime.GC()
		if time.Now().After(deadline) {
			t.Fatal("the session is still reachable from its designer")
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(d)
	var _ designer.SessionDesigner = d
}
