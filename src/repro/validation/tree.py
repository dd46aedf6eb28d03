"""The validation tree of [10] (Algorithm 1 + subset-sum traversal).

The tree is a prefix tree over *ascending* license indexes: the record
``({L_D^1, L_D^2, L_D^4}, 30)`` creates/updates the path
``root -> 1 -> 2 -> 4`` and adds 30 to the terminal node's count.  The count
stored at a node is ``C[S]`` for the set ``S`` spelled by the path from the
root (Figure 1 of the paper).

Child lists are kept ordered by ascending index (the paper: "child nodes of
a node are ordered in increasing order of their indexes"), which the
insertion algorithm exploits to stop scanning early.

The key query is :meth:`ValidationTree.subset_sum`: the LHS ``C⟨S⟩`` of a
validation equation is the sum of counts over all stored sets that are
subsets of ``S`` -- computed by descending only into children whose index
belongs to ``S``.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.logstore.log import ValidationLog
from repro.logstore.record import LogRecord

__all__ = ["TreeNode", "ValidationTree"]


class TreeNode:
    """One validation-tree node: a license index, a count, ordered children.

    ``index == 0`` marks the root (no license).  ``count`` is the aggregate
    ``C[S]`` of the set spelled by the root->node path; interior nodes whose
    set never appeared in the log carry 0.
    """

    __slots__ = ("index", "count", "children")

    def __init__(self, index: int = 0, count: int = 0):
        self.index = index
        self.count = count
        self.children: List["TreeNode"] = []

    def child_with_index(self, index: int) -> Optional["TreeNode"]:
        """Return the child holding ``index``, or ``None``.

        Sequential scan over the ordered child list, stopping as soon as a
        larger index is seen -- exactly step 1 of Algorithm 1.
        """
        for child in self.children:
            if child.index == index:
                return child
            if child.index > index:
                return None
        return None

    def insert_child(self, index: int) -> "TreeNode":
        """Insert (or return existing) child with ``index``, keeping the
        child list ordered ascending."""
        position = 0
        for position, child in enumerate(self.children):
            if child.index == index:
                return child
            if child.index > index:
                break
        else:
            position = len(self.children)
        node = TreeNode(index)
        self.children.insert(position, node)
        return node

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"TreeNode(index={self.index}, count={self.count}, children={len(self.children)})"


class ValidationTree:
    """Prefix tree over log records (the paper's *validation tree*).

    Examples
    --------
    >>> tree = ValidationTree()
    >>> tree.insert_set((1, 2), 800)
    >>> tree.insert_set((2,), 400)
    >>> tree.subset_sum(0b11)          # C<{1,2}> = C[{1}]+C[{2}]+C[{1,2}]
    1200
    >>> tree.subset_sum(0b10)          # C<{2}> = C[{2}]
    400
    """

    def __init__(self, root: Optional[TreeNode] = None):
        self.root = root if root is not None else TreeNode()

    # ------------------------------------------------------------------
    # Construction (Algorithm 1)
    # ------------------------------------------------------------------
    def insert(self, record: LogRecord) -> None:
        """Insert one log record (Algorithm 1)."""
        self.insert_set(record.sorted_indexes, record.count)

    def insert_set(self, sorted_indexes: Sequence[int], count: int) -> None:
        """Insert a pre-sorted index sequence with a count.

        The recursion of Algorithm 1 is unrolled into a loop: walk/extend
        the path ``root -> r1 -> r2 -> ...`` and add ``count`` at the final
        node.
        """
        if not sorted_indexes:
            raise ValidationError("cannot insert an empty license set")
        if count < 0:
            raise ValidationError(f"count must be non-negative, got {count}")
        previous = 0
        node = self.root
        for index in sorted_indexes:
            if index <= previous:
                raise ValidationError(
                    f"license indexes must be strictly ascending: {sorted_indexes!r}"
                )
            previous = index
            node = node.insert_child(index)
        node.count += count

    def insert_recursive(self, record: LogRecord) -> None:
        """Algorithm 1 transcribed literally (recursive ``Insert(T, R, count)``).

        Semantically identical to :meth:`insert` (tested); kept for
        fidelity with the paper's pseudocode.  Prefer :meth:`insert` in
        production -- very long records would recurse deeply.
        """

        def insert(node: TreeNode, remaining: Sequence[int], count: int) -> None:
            # Step 1-3: find or create the child holding the first index.
            first, rest = remaining[0], remaining[1:]
            child = node.child_with_index(first)
            if child is None:
                child = node.insert_child(first)
            # Step 4: add at the last node, else recurse on R'.
            if not rest:
                child.count += count
            else:
                insert(child, rest, count)

        indexes = record.sorted_indexes
        if not indexes:
            raise ValidationError("cannot insert an empty license set")
        insert(self.root, indexes, record.count)

    @classmethod
    def from_log(cls, log: ValidationLog) -> "ValidationTree":
        """Build a tree by inserting every record of a log in order."""
        tree = cls()
        for record in log:
            tree.insert(record)
        return tree

    @classmethod
    def from_counts(cls, counts_by_set: Dict[frozenset, int]) -> "ValidationTree":
        """Build a tree directly from aggregated ``{S: C[S]}`` counts."""
        tree = cls()
        for license_set, count in counts_by_set.items():
            tree.insert_set(tuple(sorted(license_set)), count)
        return tree

    def merge(self, other: "ValidationTree") -> None:
        """Add every count stored in ``other`` into this tree.

        Lets a validation authority combine log shards kept by different
        collectors: merging the shard trees equals building one tree over
        the concatenated logs (validation sees only aggregated counts).
        ``other`` is not modified.
        """
        stack: List[Tuple[TreeNode, Tuple[int, ...]]] = [
            (child, (child.index,)) for child in other.root.children
        ]
        while stack:
            node, path = stack.pop()
            if node.count:
                self.insert_set(path, node.count)
            stack.extend(
                (child, path + (child.index,)) for child in node.children
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def subset_sum(self, mask: int) -> int:
        """Return ``C⟨S⟩``: the sum of stored counts over all sets that are
        subsets of the set encoded by ``mask``.

        The traversal only descends into children whose index is in the
        mask; every node reached that way spells a subset of ``S``, so its
        count contributes.  Cost is proportional to the number of tree
        nodes whose path lies inside ``S``.
        """
        total = 0
        # Iterative DFS to avoid recursion-depth limits on deep trees.
        stack = [self.root]
        while stack:
            node = stack.pop()
            for child in node.children:
                if mask & (1 << (child.index - 1)):
                    total += child.count
                    if child.children:
                        stack.append(child)
        return total

    def counts_by_mask(self) -> Dict[int, int]:
        """Reconstruct the aggregated ``{mask: C[S]}`` mapping from the tree
        (zero-count interior nodes are omitted).  Used for cross-engine
        consistency checks."""
        counts: Dict[int, int] = {}
        stack: List[Tuple[TreeNode, int]] = [(self.root, 0)]
        while stack:
            node, mask = stack.pop()
            for child in node.children:
                child_mask = mask | (1 << (child.index - 1))
                if child.count:
                    counts[child_mask] = counts.get(child_mask, 0) + child.count
                stack.append((child, child_mask))
        return counts

    # ------------------------------------------------------------------
    # Introspection / metrics
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[TreeNode]:
        """Yield every node except the root (pre-order)."""
        stack = list(reversed(self.root.children))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def node_count(self) -> int:
        """Return the number of non-root nodes (the storage metric of
        Figure 10)."""
        return sum(1 for _ in self.iter_nodes())

    def depth(self) -> int:
        """Return the maximum path length from the root (0 for empty)."""
        best = 0
        stack: List[Tuple[TreeNode, int]] = [(self.root, 0)]
        while stack:
            node, level = stack.pop()
            if level > best:
                best = level
            stack.extend((child, level + 1) for child in node.children)
        return best

    def max_index(self) -> int:
        """Return the largest license index stored, or 0 for an empty tree."""
        best = 0
        for node in self.iter_nodes():
            if node.index > best:
                best = node.index
        return best

    def to_nested_dict(self) -> Dict:
        """Render the tree as nested dicts (stable, for tests/debugging).

        Shape: ``{"index": i, "count": c, "children": [...]}`` with children
        in index order.
        """

        def render(node: TreeNode) -> Dict:
            return {
                "index": node.index,
                "count": node.count,
                "children": [render(child) for child in node.children],
            }

        return render(self.root)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"ValidationTree(nodes={self.node_count()})"
