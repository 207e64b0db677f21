package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"vbmo/internal/prog"
)

// goldenSeeds are the generation seeds TestGoldenPrograms pins every
// catalog workload at.
var goldenSeeds = []uint64{1, 3, 12}

// goldenPrograms pins a SHA-256 over Entry and Code of Generate(p, seed)
// for every Catalog() workload at every goldenSeeds seed, keyed
// "name/seed". Calibration runs each candidate program functionally, so
// a change to the executor, the builder or the calibration loop that is
// meant to be exact must leave every row as it is. A deliberate change
// regenerates rows from the failure message, which prints each
// replacement row.
var goldenPrograms = map[string]string{
	"gzip/1":       "43adf146561f4ce7deafbec695cdf42e60f8725a0337d006c7e8cfe662d07586",
	"gzip/3":       "99e43ce9d17e6e16924318bfa69b740b64947a04370e0ce15ae7b70ac5d618c8",
	"gzip/12":      "a1170f26c3d07be5548fb34fb3607f0cc6e5c1758229561e0a7f3f6edc744223",
	"gcc/1":        "60ec9d98b6fc054219de5082cc2e1b7cca86bf988357b3c456fb04489f6404a1",
	"gcc/3":        "862a8c48910ca8616d31ce81f2b26ec6d46058c04980a49599873a06363e601f",
	"gcc/12":       "95dbc6ee0ad3d75d6f6d253cc8d854f540ccbb728de36e5d1fcbc467f06d3e5b",
	"mcf/1":        "cacab94dcd1972705525e2175579ffffc77352a94ee115e814c22cf96c7650ae",
	"mcf/3":        "b944fd9ca588e3d2ba319dfe99ad542fdc050e4c628bcdc8c418f83f290ddfa9",
	"mcf/12":       "49757dff79d13891be49c945f8f599f1468bb87a2fed3cf0e45b872a62370a93",
	"parser/1":     "d64ff6e3ef8747976dda70a8fa68133759ac8c8719e35510a4bde0b9e4ff419c",
	"parser/3":     "de3270eb287edb0659a9fa4913fa5093660c0c66ea6b360ec7fe37b201970fd2",
	"parser/12":    "26c12e479a51cd6ccf983d9f84cacd418b12bbd25a5f01c9e77a48e84abe2c9e",
	"vortex/1":     "d2b5f1fbeb943f4f960fcfbe1f465c53bd39736653251e9a8e47d97c2ce8fa08",
	"vortex/3":     "c0967be30abd67f53f0c064b96e50fc435723853d435c9c2c8bce424bf890c07",
	"vortex/12":    "9d83ab0a888222fbfde552e4c766b7f8508e6b33016282699e5880af3e5f086d",
	"bzip2/1":      "f6275730098211f5e6a183a5cf8a8a22d823c84058813c2255a8402465aadf40",
	"bzip2/3":      "d66a2ce92461112b817ec37eb9098f6a982e2d833f8f9e7e1f759394dfe373bc",
	"bzip2/12":     "1737e30a1b84e625606454d57fadcfe1815122f31f52a96db1960b8c02c7bf48",
	"twolf/1":      "99b8ad66faee631cda945d6c8f93b199ad54d80f7f2ce4ed3e068eafe65f8e1d",
	"twolf/3":      "cab414328c3d71dbc005cde3a0df3c62324fb7e4d95e9dc928d1aefdd85b35e8",
	"twolf/12":     "a633f95abf237b11c195b5f815ede9f3bbe5e01c5c3df9721f34e308831dfed7",
	"gap/1":        "bc897a99a853d7ed67f52a9119bfee2cb9c00ea457d7d6942ae670955ff9e0d2",
	"gap/3":        "51f5902c161e91a53a74f6ff88589a073a4b787b87223d1229a0628489e0eac8",
	"gap/12":       "ddb59e6590d26c62250d259f13d4cb13a186f9ca472d4f1ba2e8c4fe0f78333c",
	"perlbmk/1":    "e64d7277a9b425c6175b630d24e76352ccf76faee826dadcdda81a864fb66b01",
	"perlbmk/3":    "21aea87d520cd8f2a08285bfd82be4bcbe3d211c1aae9aa77edaf053c0220864",
	"perlbmk/12":   "7a0d0d108ad2184658bd48753395a7248166e9f74f13c6e124a375850048873f",
	"crafty/1":     "7a4e7da5c724cc3b73452090ff998dee20ec6bf9518f2a80a46297bb720934e0",
	"crafty/3":     "3df1392779443c978c8374bfa1828b5f1eedbe0eeefb6421f8a8db5835e0c2a6",
	"crafty/12":    "af1701027c599344cfa03b42ea05b9ccdb9a636538aec569ef3c527f635f406e",
	"eon/1":        "10a1c9b5cf66086ceee20e851d7496f44c5de00d80233fc594911d0df67a9195",
	"eon/3":        "a9527fdf4cb06e262c4c040210cf040857696a1abf85bc5352bc6959caef649b",
	"eon/12":       "7ed9a2a725d9003734b842ebc320656c15d6a8b26699e154e8767eecc93bb60e",
	"apsi/1":       "9d4be27776d64f35e4962e5ded539aaed903ece3190e45906e51a405ee02e8f6",
	"apsi/3":       "55efd75d684fba0a22dc8f49303f4da23827c0a2f1aa9942f81f8018eed7f10d",
	"apsi/12":      "8cd609ca63cf08046c2ef5328f6c6a5b46e3e06eda0d43aa1f06931865ec856e",
	"art/1":        "2fd421f0d57997fdad3a286c9f848e76d9d8667020805d9801dba53e69f2161e",
	"art/3":        "2c0aed1f3801c54b4986d3ac51a15feab2b27a9a75c709424d476003c7dd239e",
	"art/12":       "c81b205383b002b00b6bb094077ea1448cd9c3b3d273281fcdf1502a1c2f505f",
	"wupwise/1":    "d2e141915e6f3d416a42395eb9fa7fef19e0fca93c5dd615d464ba87192a2dd7",
	"wupwise/3":    "26fede7a172c4e58792a48e06fe1dad9a3c26e7a8ad8962012025bc94215d116",
	"wupwise/12":   "f8f78efe2e0af19427c0aec10ac7defab2770a9e1078e8bc47760bd850215b60",
	"tpcb/1":       "848894a6d26e8175f3a06fb378f73019b1718c0d3f0146ab1ed25a4c554fa687",
	"tpcb/3":       "c9ce6d46624d963bc101bc227332dfceb40f9530f0c56d8039e32349d3179d70",
	"tpcb/12":      "e745205d3532fe50cb3cd8495e6e89c472bec1bc09bee31334a1aaa8e57b969d",
	"tpch/1":       "ae4e6260896d74b9223197a15f618cff344f2a9adba5ece202d9458d584d9378",
	"tpch/3":       "e34523e49e9d9bc35e0723cec78ff6f31339d6cef2174cd65fb30f4a2c9c9d0b",
	"tpch/12":      "812f3ad2a60b8e77e5783878dd7a84c3cda42749cc8794608cfd6f7d7d4190be",
	"jbb/1":        "be1e1771a97cd31f07f0ac8954b96b54461fe34b42450d1c19c3337d7b565ae0",
	"jbb/3":        "149678ba10d3c7003f1334f22edafe89c92234a460dc7db445decf09feba86bc",
	"jbb/12":       "3c41f9ea3517c2eeb51a204192fe8f9e1cb410e968c9fc3940d9fc2f33c32518",
	"barnes/1":     "163048077b4995901d85dd5e32be6e5c9837956a9937207cf460514873d4ab60",
	"barnes/3":     "4aac66272d2aa2d419fd5f40dd87bf3ffc760f52e7c96f86ee88c49bffde40d9",
	"barnes/12":    "046cc4a4248c82d55cde293d2f231adbebad2ea39a0eedd015316551643a4f48",
	"ocean/1":      "b58d2dbcb18594b1aa5b5258ab195cbea6928f688c2636f1f7215f8caa98d235",
	"ocean/3":      "739fc7e5756aeaa8d0d0473da6c55d2bf3c52c914f9cc60bdd1c2b5c042a7117",
	"ocean/12":     "fa9c79fcf42017b5091720473dd5d5fd7be02ee23047792296f081bb4934b889",
	"radiosity/1":  "6ecd2ee5059b3a9d186f52a2b89af85092a3fb625564fd23b101f0625c893b36",
	"radiosity/3":  "f32d30dd4fd10c278d19e77093c0511202855800dfa6ead16d4fb831ae99848e",
	"radiosity/12": "03a6d5fb6e467a934ae3afa2658cac0a9ddb71582d34f34298c2583e70781eb3",
	"raytrace/1":   "5c809268ad7d6327714db8236b9e527e02f609b0661b51263576e03e1d611701",
	"raytrace/3":   "c22f2e1f6df735f7f5b7b18f8f82c1271d4cbdab8808476489bb9748f682ba6e",
	"raytrace/12":  "e188f292b9fb6b5d4cedfbea00a0e0c95c5815ce9055869d4931eb533b58f0da",
	"specweb/1":    "9a4c29b352720a2f4f76521733444e511604e76c4a044f5123efc9c639cd1f44",
	"specweb/3":    "0db26a40b5a4d5cedf61290f1db28e702e9827ff9ad04b4f95d6817ecb922408",
	"specweb/12":   "a41106e7065c22443bfde1283de0f493687f3e97cf413589ad3db0cfce2b3a97",
	"jbb-mp/1":     "64509f98d5f2c3a42ea28fcf88caa8c5ed79781cbb933f2fae2f8f40bb0375b1",
	"jbb-mp/3":     "1e9632fda18ddc6d503f35ae77112ae3804e606d4688ddd6bf9cef41cde3635e",
	"jbb-mp/12":    "b8d6549db7b957e53fcdd91134cc3bb85a0611763d9863b8b25fcbb1a8cbcc0c",
	"tpch-mp/1":    "f7b496c82a6e7c3cf87e132e350cce9d6d256ab7e510721336f78d9deae2704f",
	"tpch-mp/3":    "ce773caa8be4b4e207ecc6d77cd4d9aaeba5e50f31bffa6da5434e9ca9e31aca",
	"tpch-mp/12":   "1e1a6dd869e3f59fae9affc494f8ec294352c5710da2c991bdd7a05d05e69800",
	"spin/1":       "5d87fa12f129b22f27b60c89ae154724eb43b67f510c6e1f3e0effd93b2df738",
	"spin/3":       "74d4592756735d398ee66394cdf2914921e8d11862300f14af8a3011831466e0",
	"spin/12":      "ac895be21e2ae46b4e8912730f024729340b3c18163ab575c26498c7f350a263",
	"spin-mp/1":    "2cdccac9e9b3c8d1f80654aa91ad51514860647706ea8bcc18c8b43633cb2ea3",
	"spin-mp/3":    "dc325c18bb3781391cf02845fcb30b338a44ffedf336997f0b485beae541324e",
	"spin-mp/12":   "ea5e5af5739c162c32c525007a6cfc67ebef84d81ed7c56866c08f2ce2723c43",
}

// programDigest hashes a program's entry PC and, per instruction, its
// opcode, registers and immediate.
func programDigest(pr *prog.Program) string {
	h := sha256.New()
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], pr.Entry)
	h.Write(b[:8])
	for _, in := range pr.Code {
		b[0], b[1], b[2], b[3] = byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2)
		binary.LittleEndian.PutUint64(b[4:], uint64(in.Imm))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenPrograms regenerates every pinned program and compares its
// digest with the table.
func TestGoldenPrograms(t *testing.T) {
	for _, p := range Catalog() {
		for _, seed := range goldenSeeds {
			key := fmt.Sprintf("%s/%d", p.Name, seed)
			if got, want := programDigest(Generate(p, seed)), goldenPrograms[key]; got != want {
				t.Errorf("%s: program digest %s, pinned %q\nreplacement row:\n\t%q: %q,",
					key, got, want, key, got)
			}
		}
	}
}
