//go:build lentcheck

package mem

import (
	"fmt"
	"strings"
	"testing"

	"dfccl/internal/sim"
)

// TestLentChunkStableFires: a writer that overwrites a lent chunk without
// settling it first is caught by name at the Read.
func TestLentChunkStableFires(t *testing.T) {
	inProcess(t, func(p *sim.Process) {
		e := p.Engine()
		c := NewConnector("c", 2)
		src := []byte{1, 2}
		c.Write(e, src)
		src[1] = 3
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "invariant lent-chunk-stable") {
				t.Errorf("Read of a changed lent chunk: recovered %v, want the lent-chunk-stable panic", r)
			}
		}()
		c.Read(e)
	})
}
