package mipsx

import (
	"fmt"
	"sort"
	"strings"
)

var regNames = map[uint8]string{
	RZero: "zero", RNil: "nil", RMask: "mask", RHLim: "hlim", RHP: "hp",
	RSP: "sp", RRA: "ra",
}

func regName(r uint8) string {
	if n, ok := regNames[r]; ok {
		return n
	}
	return fmt.Sprintf("r%d", r)
}

// Disasm renders one instruction. labels, if non-nil, maps instruction
// indices back to label names for branch targets.
func Disasm(in *Instr, labels map[int]string) string {
	target := func() string {
		if labels != nil {
			if n, ok := labels[int(in.Target)]; ok {
				return n
			}
		}
		return fmt.Sprintf("@%d", in.Target)
	}
	var body string
	switch in.Op {
	case NOP, HALT:
		body = in.Op.String()
	case MOV:
		body = fmt.Sprintf("mov %s, %s", regName(in.Rd), regName(in.Rs1))
	case LI:
		body = fmt.Sprintf("li %s, %d", regName(in.Rd), in.Imm)
	case ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI:
		body = fmt.Sprintf("%s %s, %s, %d", in.Op, regName(in.Rd), regName(in.Rs1), in.Imm)
	case ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, MUL, DIV, REM, ADDTC, SUBTC,
		FADD, FSUB, FMUL, FDIV, FLT, FEQ:
		body = fmt.Sprintf("%s %s, %s, %s", in.Op, regName(in.Rd), regName(in.Rs1), regName(in.Rs2))
	case LD, LDT:
		body = fmt.Sprintf("%s %s, %d(%s)", in.Op, regName(in.Rd), in.Imm, regName(in.Rs1))
	case LDC:
		body = fmt.Sprintf("ldc %s, %d(%s) tag=%d", regName(in.Rd), in.Imm, regName(in.Rs1), in.Tag)
	case ST, STT:
		body = fmt.Sprintf("%s %s, %d(%s)", in.Op, regName(in.Rs2), in.Imm, regName(in.Rs1))
	case STC:
		body = fmt.Sprintf("stc %s, %d(%s) tag=%d", regName(in.Rs2), in.Imm, regName(in.Rs1), in.Tag)
	case BEQ, BNE, BLT, BGE, BLE, BGT:
		body = fmt.Sprintf("%s %s, %s, %s", in.Op, regName(in.Rs1), regName(in.Rs2), target())
	case BEQI, BNEI, BLTI, BGEI:
		body = fmt.Sprintf("%s %s, %d, %s", in.Op, regName(in.Rs1), in.Imm, target())
	case ITOF, FTOI:
		body = fmt.Sprintf("%s %s, %s", in.Op, regName(in.Rd), regName(in.Rs1))
	case BTEQ, BTNE:
		body = fmt.Sprintf("%s %s, tag=%d, %s", in.Op, regName(in.Rs1), in.Tag, target())
	case JMP, JAL:
		body = fmt.Sprintf("%s %s", in.Op, target())
	case JALR, JR:
		body = fmt.Sprintf("%s %s", in.Op, regName(in.Rs1))
	case SYS:
		body = fmt.Sprintf("sys %d", in.Imm)
	case LABEL:
		body = fmt.Sprintf("label @%d", in.Target)
	default:
		body = in.Op.String()
	}
	if in.Squash {
		body += " [sq]"
	}
	if in.Cat != CatWork {
		body += "  ; " + in.Cat.String()
		if in.Sub != SubNone {
			body += "/" + in.Sub.String()
		}
		if in.RTCheck {
			body += " rt"
		}
	}
	return body
}

// DisasmProgram renders the whole program with label names and indices.
func DisasmProgram(p *Program) string {
	byIndex := make(map[int]string, len(p.Labels))
	for name, idx := range p.Labels {
		if prev, ok := byIndex[idx]; !ok || name < prev {
			byIndex[idx] = name
		}
	}
	var sb strings.Builder
	names := make([]string, 0)
	for i := range p.Instrs {
		names = names[:0]
		for name, idx := range p.Labels {
			if idx == i {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&sb, "%s:\n", n)
		}
		fmt.Fprintf(&sb, "%6d  %s\n", i, Disasm(&p.Instrs[i], byIndex))
	}
	return sb.String()
}
