"""Contraction partition of a fixed ground set {0, ..., n-1}.

Classes carry stable integer labels (the label of the class that absorbed
the others survives a join) and are read as frozensets of their members.

Invariant: a label is one of its class's elements. Every class starts as
the singleton {v} labelled v, and a join keeps the absorbing class's label,
so ``class_of(label)`` of a label that a join retired names the live class
that now holds it (the graph and hypergraph quotients rely on this to
follow joins). ``retired`` logs the labels joins retired, in join order,
so a quotient can find the joins made since it was last current without
scanning the live labels.
"""


class Partition:
    def __init__(self, n):
        if n < 1:
            raise ValueError("ground set must be nonempty")
        self.n = n
        self._members = {v: [v] for v in range(n)}
        self._class_of = list(range(n))
        self.retired = []  # labels retired by joins, in join order; append-only

    @property
    def class_count(self):
        return len(self._members)

    def classes(self):
        """Live labels, ascending: they went in in order and ``join`` only deletes."""
        return list(self._members)

    def class_of(self, element):
        return self._class_of[element]

    def size(self, label):
        return len(self._members[label])

    def member_set(self, label):
        return frozenset(self._members[label])

    def blocks(self):
        """Snapshot of all classes as {label: frozenset of members}."""
        return {c: frozenset(ms) for c, ms in self._members.items()}

    def join(self, dst, src):
        """Merge class `src` into class `dst`, appending its members."""
        if dst == src:
            raise ValueError("cannot join a class with itself")
        if dst not in self._members or src not in self._members:
            raise ValueError("unknown class label")
        block = self._members.pop(src)
        self._members[dst].extend(block)
        for v in block:
            self._class_of[v] = dst
        self.retired.append(src)
