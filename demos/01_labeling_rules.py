#!/usr/bin/env python3
# Walk through the two labeling rules that turn a weather record into a
# dome state: the 36-condition open flag and the temperature gate.

from domepilot import ConditionTable, derive_state

table = ConditionTable.builtin()
print(f"built-in table has {len(table)} conditions\n")

# The flag says whether the sky alone permits opening. Lookups are
# case-insensitive with whitespace collapsed.
for condition in ("Clear", "Duststorm", "rain  passing clouds", "THUNDERSTORMS"):
    print(f"  {condition!r:32} -> flag {table.flag(condition)}")

# The temperature gate then has the last word: open only strictly between
# 16 and 27 degrees C. Both rules must agree for the dome to open.
print("\ndome state for a flag-1 condition across temperatures:")
for temp in (10, 16, 16.5, 21, 26.5, 27, 35):
    state = derive_state(1, temp)
    print(f"  temp {temp:>5} C -> {'open' if state else 'close'}")

# A flag-0 condition closes the dome no matter how pleasant the air is.
print(f"\nSandstorm at 21 C -> state {derive_state(table.flag('Sandstorm'), 21)}")
