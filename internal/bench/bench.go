// Package bench provides the six benchmark kernels used throughout the
// evaluation. Each is a PFL program whose computational skeleton and —
// more importantly — whose *sharing pattern* models one of the Perfect
// Club codes the paper simulates:
//
//	SPEC77  spectral weather: transform passes over rows with read-only
//	        trigonometric tables, plus transposes that move every element
//	        across processors (cross-epoch producer/consumer).
//	OCEAN   ocean circulation: red/black relaxation sweeps with stencil
//	        neighbours (line-grain false sharing for HW) and a residual
//	        reduction through a critical section.
//	FLO52   transonic flow (Euler): multi-stage smoothing on a fine grid
//	        with strided injection to a coarse grid and prolongation back
//	        (stride-2 sections).
//	QCD2    lattice gauge: link updates gathered through a precomputed
//	        neighbour table (non-affine subscripts force conservative
//	        marking; scattered reads hit remote-dirty lines under HW).
//	TRFD    two-electron integral transform: chained matrix products with
//	        in-place k-accumulation — the paper's redundant-write storm
//	        that floods TPI's write-through traffic unless the write
//	        buffer is organized as a cache.
//	ARC2D   implicit finite difference (ADI): row sweeps then column
//	        sweeps with serial recurrences, so each half-step consumes
//	        data the other half-step produced across all processors.
//
// Array sizes are parameters so tests run in milliseconds while
// cmd/experiments uses fuller sizes.
package bench

import (
	"fmt"
	"sort"
)

// Params sizes a kernel.
type Params struct {
	// N is the principal grid dimension.
	N int
	// Steps is the number of outer time steps.
	Steps int
}

// DefaultParams is small and fast (unit tests).
func DefaultParams() Params { return Params{N: 24, Steps: 2} }

// PaperParams is the fuller size used by the experiment harness.
func PaperParams() Params { return Params{N: 48, Steps: 3} }

// Kernel is one benchmark program.
type Kernel struct {
	Name        string
	Description string
	Source      string
}

// kernels is the one table Kernels, Get and Names read, in the paper's
// reporting order. gen renders a kernel's source at a size.
var kernels = [...]struct {
	name, desc string
	gen        func(Params) string
}{
	{"spec77", "spectral transform + transpose, read-only tables", spec77},
	{"ocean", "red/black relaxation with critical reduction", ocean},
	{"flo52", "multi-stage Euler smoothing with coarse-grid transfer", flo52},
	{"qcd2", "lattice link update through a neighbour table", qcd2},
	{"trfd", "integral transform with in-place accumulation", trfd},
	{"arc2d", "ADI row/column sweeps with serial recurrences", arc2d},
}

// Names lists the kernels in the paper's reporting order.
var Names = func() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	return names
}()

// Kernels returns all six kernels at the given size.
func Kernels(p Params) []Kernel {
	ks := make([]Kernel, len(kernels))
	for i, k := range kernels {
		ks[i] = Kernel{k.name, k.desc, k.gen(p)}
	}
	return ks
}

// Get returns one kernel by name, generating only its source.
func Get(name string, p Params) (Kernel, error) {
	for _, k := range kernels {
		if k.name == name {
			return Kernel{k.name, k.desc, k.gen(p)}, nil
		}
	}
	known := append([]string(nil), Names...)
	sort.Strings(known)
	return Kernel{}, fmt.Errorf("bench: unknown kernel %q (known: %v)", name, known)
}

func spec77(p Params) string {
	return fmt.Sprintf(`
program spec77
param n = %d
param steps = %d
scalar norm = 0.0
array GRID[n][n]
array SPEC[n][n]
array TRIG[n]

proc main() {
  doall i = 0 to n-1 {
    TRIG[i] = 1.0 + (i * 37 %% 19) * 0.01
    for j = 0 to n-1 {
      GRID[i][j] = (i * n + j) * 0.001
      SPEC[i][j] = 0.0
    }
  }
  for t = 1 to steps {
    call transform(GRID, SPEC)
    call transpose(SPEC, GRID)
    call transform(GRID, SPEC)
    call transpose(SPEC, GRID)
    doall i = 0 to n-1 {
      critical {
        norm = norm + GRID[i][0]
      }
    }
  }
}

proc transform(X[][], Y[][]) {
  doall i = 0 to n-1 {
    for j = 1 to n-2 {
      Y[i][j] = X[i][j-1] * TRIG[j] + X[i][j+1] * TRIG[j-1] + X[i][j] * 0.5
    }
    Y[i][0] = X[i][0] * TRIG[0]
    Y[i][n-1] = X[i][n-1] * TRIG[n-1]
  }
}

proc transpose(X[][], Y[][]) {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      Y[i][j] = X[j][i]
    }
  }
}
`, p.N, p.Steps)
}

func ocean(p Params) string {
	return fmt.Sprintf(`
program ocean
param n = %d
param steps = %d
scalar resid = 0.0
array U[n][n]
array V[n][n]
array F[n][n]

proc main() {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      U[i][j] = (i + j) * 0.01
      V[i][j] = 0.0
      F[i][j] = (i * j %% 13) * 0.001
    }
  }
  for t = 1 to steps {
    doall i = 1 to n-2 {
      for j = 1 to n-2 {
        V[i][j] = (U[i-1][j] + U[i+1][j] + U[i][j-1] + U[i][j+1]) * 0.25 + F[i][j]
      }
    }
    doall i = 1 to n-2 {
      for j = 1 to n-2 {
        U[i][j] = (V[i-1][j] + V[i+1][j] + V[i][j-1] + V[i][j+1]) * 0.25 + F[i][j]
      }
    }
    doall i = 1 to n-2 {
      critical {
        resid = resid + (U[i][i] - V[i][i])
      }
    }
  }
}
`, p.N, p.Steps)
}

func flo52(p Params) string {
	// nc = n/2 coarse grid.
	return fmt.Sprintf(`
program flo52
param n = %d
param nc = %d
param steps = %d
array W[n][n]
array R[n][n]
array WC[nc][nc]
array RC[nc][nc]

proc main() {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      W[i][j] = (i - j) * 0.002
      R[i][j] = 0.0
    }
  }
  doall i = 0 to nc-1 {
    for j = 0 to nc-1 {
      WC[i][j] = 0.0
      RC[i][j] = 0.0
    }
  }
  for t = 1 to steps {
    call smooth(W, R)
    call inject(R, RC)
    call smooth_coarse(RC, WC)
    call prolong(WC, W)
    call smooth(W, R)
  }
}

proc smooth(X[][], Y[][]) {
  doall i = 1 to n-2 {
    for j = 1 to n-2 {
      Y[i][j] = X[i][j] + (X[i-1][j] + X[i+1][j] - 2.0 * X[i][j]) * 0.2
    }
  }
  doall i = 1 to n-2 {
    for j = 1 to n-2 {
      X[i][j] = Y[i][j]
    }
  }
}

proc inject(X[][], Y[][]) {
  doall i = 0 to nc-1 {
    for j = 0 to nc-1 {
      Y[i][j] = X[2*i][2*j]
    }
  }
}

proc smooth_coarse(X[][], Y[][]) {
  doall i = 1 to nc-2 {
    for j = 1 to nc-2 {
      Y[i][j] = (X[i-1][j] + X[i+1][j] + X[i][j-1] + X[i][j+1]) * 0.25
    }
  }
}

proc prolong(X[][], Y[][]) {
  doall i = 1 to nc-2 {
    for j = 1 to nc-2 {
      Y[2*i][2*j] = Y[2*i][2*j] + X[i][j] * 0.5
    }
  }
}
`, p.N, p.N/2, p.Steps)
}

func qcd2(p Params) string {
	// sites = N*N lattice points flattened; links = 4 directions.
	return fmt.Sprintf(`
program qcd2
param sites = %d
param links = 4
param steps = %d
scalar action = 0.0
array G[sites][links]
array GNEW[sites][links]
array NBR[sites]

proc main() {
  doall s = 0 to sites-1 {
    NBR[s] = (s * 31 + 17) %% sites
    for m = 0 to links-1 {
      G[s][m] = 1.0 + (s + m) * 0.0001
      GNEW[s][m] = 0.0
    }
  }
  for t = 1 to steps {
    doall s = 0 to sites-1 {
      for m = 0 to links-1 {
        GNEW[s][m] = G[s][m] * 0.5 + G[NBR[s]][m] * 0.25 + G[NBR[NBR[s]]][m] * 0.25
      }
    }
    doall s = 0 to sites-1 {
      for m = 0 to links-1 {
        G[s][m] = GNEW[s][m]
      }
    }
    doall s = 0 to sites-1 {
      critical {
        action = action + G[s][0]
      }
    }
  }
}
`, p.N*p.N/2, p.Steps)
}

func trfd(p Params) string {
	return fmt.Sprintf(`
program trfd
param n = %d
param steps = %d
array A[n][n]
array B[n][n]
array X[n][n]
array Y[n][n]

proc main() {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      A[i][j] = (i * 3 + j) * 0.001
      B[i][j] = (i - 2 * j) * 0.001
      X[i][j] = 0.0
      Y[i][j] = 0.0
    }
  }
  for t = 1 to steps {
    call matmul(A, B, X)
    call matmul(X, A, Y)
    call rescale(Y, B)
  }
}

proc matmul(P[][], Q[][], Z[][]) {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      Z[i][j] = 0.0
    }
    for k = 0 to n-1 {
      for j = 0 to n-1 {
        Z[i][j] = Z[i][j] + P[i][k] * Q[k][j]
      }
    }
  }
}

proc rescale(P[][], Q[][]) {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      Q[i][j] = P[i][j] * 0.001 + Q[i][j] * 0.5
    }
  }
}
`, p.N, p.Steps)
}

func arc2d(p Params) string {
	return fmt.Sprintf(`
program arc2d
param n = %d
param steps = %d
array U[n][n]
array L[n][n]
array D[n][n]

proc main() {
  doall i = 0 to n-1 {
    for j = 0 to n-1 {
      U[i][j] = (i + 2 * j) * 0.001
      L[i][j] = 0.1
      D[i][j] = 1.0 + (i %% 5) * 0.01
    }
  }
  for t = 1 to steps {
    doall i = 0 to n-1 {
      for j = 1 to n-1 {
        U[i][j] = U[i][j] - L[i][j] * U[i][j-1]
      }
      for j = 0 to n-1 {
        U[i][j] = U[i][j] / D[i][j]
      }
    }
    doall j = 0 to n-1 {
      for i = 1 to n-1 {
        U[i][j] = U[i][j] - L[i][j] * U[i-1][j]
      }
      for i = 0 to n-1 {
        U[i][j] = U[i][j] / D[i][j]
      }
    }
  }
}
`, p.N, p.Steps)
}

// SequentialKernels returns sequential (pre-Polaris) variants of two
// kernels for the whole-toolchain experiment: the auto-parallelizer must
// recover the DOALL structure (including reductions) before marking and
// simulation.
func SequentialKernels(p Params) []Kernel {
	return []Kernel{
		{"ocean-seq", "sequential red/black relaxation with a residual reduction", oceanSeq(p)},
		{"trfd-seq", "sequential integral transform", trfdSeq(p)},
	}
}

func oceanSeq(p Params) string {
	return fmt.Sprintf(`
program oceanseq
param n = %d
param steps = %d
scalar resid = 0.0
array U[n][n]
array V[n][n]
array F[n][n]

proc main() {
  for i = 0 to n-1 {
    for j = 0 to n-1 {
      U[i][j] = (i + j) * 0.01
      V[i][j] = 0.0
      F[i][j] = (i * j %% 13) * 0.001
    }
  }
  for t = 1 to steps {
    for i = 1 to n-2 {
      for j = 1 to n-2 {
        V[i][j] = (U[i-1][j] + U[i+1][j] + U[i][j-1] + U[i][j+1]) * 0.25 + F[i][j]
      }
    }
    for i = 1 to n-2 {
      for j = 1 to n-2 {
        U[i][j] = (V[i-1][j] + V[i+1][j] + V[i][j-1] + V[i][j+1]) * 0.25 + F[i][j]
      }
    }
    for i = 1 to n-2 {
      resid = resid + (U[i][i] - V[i][i])
    }
  }
}
`, p.N, p.Steps)
}

func trfdSeq(p Params) string {
	return fmt.Sprintf(`
program trfdseq
param n = %d
param steps = %d
array A[n][n]
array B[n][n]
array X[n][n]
array Y[n][n]

proc main() {
  for i = 0 to n-1 {
    for j = 0 to n-1 {
      A[i][j] = (i * 3 + j) * 0.001
      B[i][j] = (i - 2 * j) * 0.001
      X[i][j] = 0.0
      Y[i][j] = 0.0
    }
  }
  for t = 1 to steps {
    call matmulseq(A, B, X)
    call matmulseq(X, A, Y)
    for i = 0 to n-1 {
      for j = 0 to n-1 {
        B[i][j] = Y[i][j] * 0.001 + B[i][j] * 0.5
      }
    }
  }
}

proc matmulseq(P[][], Q[][], Z[][]) {
  for i = 0 to n-1 {
    for j = 0 to n-1 {
      Z[i][j] = 0.0
    }
    for k = 0 to n-1 {
      for j = 0 to n-1 {
        Z[i][j] = Z[i][j] + P[i][k] * Q[k][j]
      }
    }
  }
}
`, p.N, p.Steps)
}
