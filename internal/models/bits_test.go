package models

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duo/internal/parallel"
	"duo/internal/tensor"
	"duo/internal/video"
)

// bitPin is one architecture's pass at one geometry, as SHA-256 digests of
// the float64 bits: the embedding, the input gradient, and every
// Param.Grad of the trainable model in Params order.
type bitPin struct{ forward, dx, grads string }

// bitPins are the digests the forward and backward passes have given since
// before they shared one pass with Infer. A model is built from seed 91 at
// featDim 32, then the clip and the embedding gradient are drawn from the
// same source.
var bitPins = map[string]bitPin{
	"C3D 16x3x16x16":      {"09be9fce0d7faff34a48b1f16258324637d186fe74bef1e4559986f944ebca51", "1abf42a13606b8821813cfc3ccd270b6836c20032ec1e37de1e3bec03cf493b1", "7d47a7cb884b89cb11b68d5fc32cf6ed2a62634efad4d4c5f5a3c11f0d26423a"},
	"C3D 5x3x11x13":       {"081897ea0dfa68a0917efa1945d4fbb4e6e256d2745d3f50a1918654b1409180", "7186412ae3f80baf5b1d0016e63c677055d293dd555635cf540312a773843c93", "90310cd4db880928fc02754f90829efb9dd629cc9581d24de93676a664a3ee96"},
	"CNNLSTM 16x3x16x16":  {"717f2041e06a7ca475e99e18d7889264ddbbc9e1c55c53e39d65505118cf862c", "de322723202b178b588f57ace12fbe98b4c81690f2c09de215b50d25bb80a1da", "25430e79729ceae4d4ab41d1dc278a5cbc0a8e066ceb080b3fcc0180e991e461"},
	"CNNLSTM 5x3x11x13":   {"c7b014afc3ea7e70259934a556074046d1b1b472d51a5fa15d1f73199afa36bb", "dd18c4b7c38372f03fc43db335a294c208119bc4941ecd922352c0e7847c0ec0", "0b4cb132740da6171da6bb70fb0e41a7eb4b8da7041717ac5ca79468a7845ef7"},
	"I3D 16x3x16x16":      {"cfe83e6595ae0f8aa774240bf49d9b4ed772e808b3496002aaee5be3d99e0db2", "80b3d22d60d2682ef8c86c3890f6f9cb26e6b9040256fe3b4fa7da15125cf872", "1bfee19c25178a0533da1dc8aad9d5765c6aaaa538639e2bfc426069ab654671"},
	"I3D 5x3x11x13":       {"67690e6351be42b4244df1dd6917d8cd10bda0f53b5319f718c828eb2176b6f7", "2d39f89703839d61d31b3da1013319c6d4420b99097c9eb56b3123228acf8993", "f57f3e37c1534b01dfc107b00b8cb3844d237caae15d95943b25bef39e46c7b5"},
	"Resnet18 16x3x16x16": {"51a0fe9cc98408b8d4ce065fb05e448ada613b50c911c3a676278735d220b661", "2c07a161777c0c75a5a2adede38bef4122f02d39874e4ba96ee180c655bdec5b", "ca8f07896c60b198c661a67b7db9b8a085361f60b8dd604776197c5df163aae0"},
	"Resnet18 5x3x11x13":  {"ddb51d778c64dbfaae52cd82030a47299fb41f71dacd177798c284fe4fdf646e", "9166a8bbfe0a2d2b24c388ddb09bbc229eabfb8a55fdd2761952b6d417ea9e0b", "3e8b4ed729eaca5b32fb8cd86f313d64d7b8d0381fe84cc81cfc72c0bc67c432"},
	"Resnet34 16x3x16x16": {"0598d802b2480e7f6a2216c5987211fb0c08453dc082282093b8b7a3e8ec95cc", "6be286092c994bd5b41976915be8f23d13c961f601d4b1570774a138c75d9fe8", "f2171f68ec7e0dfdae533ea207b4c20bb3fec8489bb99f2ba04db8cfe53c2d55"},
	"Resnet34 5x3x11x13":  {"a4a8cc8c4905f1d0497e5294b54e887369d213e5adb77f2c67b7d215947f0138", "3d2896ee5b754eec484a9a1f52e808760933c4c2b247245152079235a67a4c12", "c023d5a2ad0a8bceea1a9735470c32579d1710ff1ba992c2760ef373c026f41e"},
	"SlowFast 16x3x16x16": {"be731b54536b1c8814860e59bdccba1a5c3cc03b741698313e0bb9b10fc8820a", "eee84cb094a237de73e559b12ac5de3724392adade550d695dae868dfeb49364", "c13749208d7296e988a58ce5d6c4a395e13fb0ea0983767fbc79beb4bc6a8939"},
	"SlowFast 5x3x11x13":  {"5cfff794bbf60c48a41ce24e4d499d97296d6e532a0cfc87e8e38d1c32edb37e", "271cdf6acda7a0e1499d93f10c0809a0c0b11ce60b87f09957da8aaf813349aa", "78e91809b40d56880d161ee7822459d21ad95e213197038b42d5e8a02bb6b6df"},
	"TPN 16x3x16x16":      {"300b2b14b4a9d49f840bd5575942f65a0ad470b6e1c3410203f9ff72c0651b59", "2b30d6ef0acd7fb84564395439780ef0881c339b3c918f945ee99f1b77a74940", "e1d6a1d282dc6d7f77f75ba58128d8c6724d18edb2534fade7226bb21eb8485a"},
	"TPN 5x3x11x13":       {"883770d7ab1c73ab5a8e82597162ae4d70f50c4cf3d774dc426eb898cecfdc85", "00a05ad84cb502001ad8d8a4dc4cc008472d7012f226db3651726cb164c8d336", "d7dc75a1de570f6ccad2c2aa37bbb8de4c31d7c50eb36b3baf8f49e46bb70d51"},
}

// hashBits digests the bits of every tensor in ts, one after another.
func hashBits(ts ...*tensor.Tensor) string {
	h := sha256.New()
	var b [8]byte
	for _, t := range ts {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pinPass builds name at g, runs Forward, Embed and Backward on one clip,
// and returns their digests; embed is the digest of Embed's output.
func pinPass(t *testing.T, name string, g Geometry, frozen bool) (got bitPin, embed string) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	m, err := Build(name, rng, g, 32)
	if err != nil {
		t.Fatal(err)
	}
	if frozen {
		Freeze(m)
	}
	x := tensor.RandUniform(rng, 0, 255, g.Frames, g.Channels, g.Height, g.Width)
	grad := tensor.RandNormal(rng, 0, 1, m.FeatureDim())
	e, c := m.Forward(x)
	got.forward = hashBits(e)
	embed = hashBits(Embed(m, &video.Video{Data: x}))
	got.dx = hashBits(m.Backward(c, grad))
	if !frozen {
		var grads []*tensor.Tensor
		for _, p := range m.Params() {
			grads = append(grads, p.Grad)
		}
		got.grads = hashBits(grads...)
	}
	return got, embed
}

// TestModelBitPins holds every architecture's Forward, Embed, Backward dx
// and parameter gradients to recorded digests, at the benchmark's geometry
// and an odd one, trainable and frozen, on one and two workers. Every
// variant must give its architecture's one row: Embed and Forward the same
// embedding, a frozen model the trainable one's dx, two workers one's
// bits. On a mismatch the test prints the row it got.
func TestModelBitPins(t *testing.T) {
	for _, g := range []Geometry{benchGeom, oddGeom} {
		for _, name := range Names() {
			key := fmt.Sprintf("%s %dx%dx%dx%d", name, g.Frames, g.Channels, g.Height, g.Width)
			want, ok := bitPins[key]
			if !ok {
				t.Errorf("no pin for %s", key)
				continue
			}
			for _, frozen := range []bool{false, true} {
				for _, w := range []int{1, 2} {
					prev := parallel.SetWorkers(w)
					got, embed := pinPass(t, name, g, frozen)
					parallel.SetWorkers(prev)
					what := fmt.Sprintf("%s frozen=%v workers=%d", key, frozen, w)
					if frozen {
						got.grads = want.grads
					}
					if got != want {
						t.Errorf("%s: digests differ from the pin; got\n\t%q: {%q, %q, %q},", what, key, got.forward, got.dx, got.grads)
					}
					if embed != want.forward {
						t.Errorf("%s: Embed digest %s, pinned embedding %s", what, embed, want.forward)
					}
				}
			}
		}
	}
}

// TestModelForwardAllocs pins the allocations of one Forward of the
// benchmark's victim and surrogate, frozen and trainable, at its geometry
// on one worker: every activation and cache of the training pass.
func TestModelForwardAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, tc := range []struct {
		name              string
		frozen, trainable float64
	}{
		{"C3D", 31, 34},
		{"SlowFast", 47, 50},
	} {
		for _, frozen := range []bool{false, true} {
			rng := rand.New(rand.NewSource(74))
			m, err := Build(tc.name, rng, benchGeom, 32)
			if err != nil {
				t.Fatal(err)
			}
			want := tc.trainable
			if frozen {
				Freeze(m)
				want = tc.frozen
			}
			x := tensor.RandUniform(rng, 0, 255, benchGeom.Frames, benchGeom.Channels, benchGeom.Height, benchGeom.Width)
			if got := testing.AllocsPerRun(20, func() { m.Forward(x) }); got != want {
				t.Errorf("%s frozen=%v: Forward allocates %v times per call, want %v", tc.name, frozen, got, want)
			}
		}
	}
}
