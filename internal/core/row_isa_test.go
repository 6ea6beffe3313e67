package core

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// rowMnemonics is every instruction row_amd64.s may use: base x86-64 and
// AVX/AVX2, which is what hasAVX2 checks for. A mnemonic outside it — BMI2's
// SHLX or PEXT, LZCNT, an AVX-512 op — would fault on a CPU that has AVX2
// and nothing more while passing every test on a host that has the rest.
// Adding an extension means changing hasAVX2, DESIGN.md's dispatch rule and
// this list together.
var rowMnemonics = map[string]bool{}

func init() {
	for _, m := range strings.Fields(`
		MOVB MOVW MOVL MOVQ MOVLQZX MOVWLZX LEAL LEAQ
		ADDQ SUBL SUBQ INCQ DECQ NEGQ IMULL ANDQ ORL XORL XORQ SHLL SHRL SHRQ
		CMPB CMPL CMPQ TESTL TESTQ CMOVQEQ CMOVQGT CMOVQLT BSFL BSRL
		JMP JZ JNZ JEQ JNE JLT JLE JGT JGE JS JNS JB JCS RET CPUID XGETBV
		VMOVD VMOVQ VMOVDQA VMOVDQU VMOVMSKPS VPMOVMSKB VPMASKMOVD
		VPBROADCASTB VPBROADCASTD VPINSRB VPEXTRQ VEXTRACTI128 VPERM2I128 VPSHUFD
		VPUNPCKLBW VPUNPCKLDQ VPUNPCKHDQ VPACKSSDW VPACKSSWB VPMOVSXBD
		VPADDD VPSUBD VPMAXSD VPCMPEQB VPCMPEQD VPCMPGTD VPAND VPANDN VPOR VPXOR
		VPBLENDVB VPTEST VZEROUPPER`) {
		rowMnemonics[m] = true
	}
}

// TestRowAssemblyStaysInAVX2 reads row_amd64.s — macro bodies included —
// and fails on any instruction outside rowMnemonics, and on any register
// only EVEX can encode (X16–X31, Y16–Y31, Z and K registers).
func TestRowAssemblyStaysInAVX2(t *testing.T) {
	src, err := os.ReadFile("row_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	// Macro names and macro parameters stand where instructions do.
	macro := regexp.MustCompile(`^#define\s+(\w+)(\(([^)]*)\))?`)
	macros := map[string]bool{}
	for _, line := range strings.Split(string(src), "\n") {
		if m := macro.FindStringSubmatch(line); m != nil {
			macros[m[1]] = true
			for _, param := range strings.Split(m[3], ",") {
				macros[strings.TrimSpace(param)] = true
			}
		}
	}
	evexReg := regexp.MustCompile(`\b([XY](1[6-9]|2[0-9]|3[01])|Z[0-9]+|K[0-7])\b`)
	label := regexp.MustCompile(`^\w+:$`)
	var seen int
	for i, line := range strings.Split(string(src), "\n") {
		line, _, _ = strings.Cut(line, "//")
		line = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(line), `\`))
		if line == "" || strings.HasPrefix(line, "#") || label.MatchString(line) {
			continue
		}
		op := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' || r == '(' })[0]
		switch {
		case op == "DATA" || op == "GLOBL" || op == "TEXT" || macros[op]:
			continue
		case !rowMnemonics[op]:
			t.Errorf("row_amd64.s:%d: %s is not in the AVX2 allowlist", i+1, op)
		case evexReg.MatchString(line):
			t.Errorf("row_amd64.s:%d: %q names a register only AVX-512 has", i+1, line)
		}
		seen++
	}
	if seen < 100 {
		t.Fatalf("read %d instructions; the parser no longer sees the file", seen)
	}
}
