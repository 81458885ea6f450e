//go:debug asynctimerchan=0

package super

import (
	"testing"

	"goomp/internal/faketime"
)

// The directive above is the one faketime.Run needs; see its package.
func TestMain(m *testing.M) { faketime.Main(m) }
