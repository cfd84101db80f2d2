"""Seeded input generation for the ledger workloads (stdlib only).

The benchmark owns its generator instead of using
``repro.generators``: inputs must stay byte-identical when the code
under test changes, or two commits would be measured on different
documents.  Everything here is a pure function of the seed and yields
XML *text*; the program under test only ever sees that text.

Trees are ``[tag, children]`` lists whose children are trees or text
strings.  Valid documents are sampled from the DTD text itself (a tiny
content-model reader covering the sequence/choice/``?*+`` subset the
five DTDs use), so the sampler and the engine read one schema.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Tuple

FIGURE3_DTD = """
<!ELEMENT a (b, c)>
<!ELEMENT b (#PCDATA)>
<!ELEMENT c (#PCDATA)>
"""

CATALOG_DTD = """
<!ELEMENT catalog (vendor, product+)>
<!ELEMENT vendor (name, url?)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT url (#PCDATA)>
<!ELEMENT product (name, price, description?, stock)>
<!ELEMENT price (#PCDATA)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT stock (#PCDATA)>
"""

BIBLIOGRAPHY_DTD = """
<!ELEMENT bibliography (entry+)>
<!ELEMENT entry (title, author+, year, (journal | booktitle))>
<!ELEMENT title (#PCDATA)>
<!ELEMENT author (#PCDATA)>
<!ELEMENT year (#PCDATA)>
<!ELEMENT journal (#PCDATA)>
<!ELEMENT booktitle (#PCDATA)>
"""

NEWSFEED_DTD = """
<!ELEMENT feed (channel, item*)>
<!ELEMENT channel (title, language?)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT language (#PCDATA)>
<!ELEMENT item (title, body, tag*)>
<!ELEMENT body (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
"""

AUCTION_DTD = """
<!ELEMENT site (region+, people, auctions)>
<!ELEMENT region (name, item*)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT item (name, description?, reserve?, seller)>
<!ELEMENT description (#PCDATA)>
<!ELEMENT reserve (#PCDATA)>
<!ELEMENT seller (#PCDATA)>
<!ELEMENT people (person+)>
<!ELEMENT person (name, email?, watch*)>
<!ELEMENT email (#PCDATA)>
<!ELEMENT watch (#PCDATA)>
<!ELEMENT auctions (auction*)>
<!ELEMENT auction (item, bid*)>
<!ELEMENT bid (bidder, amount)>
<!ELEMENT bidder (#PCDATA)>
<!ELEMENT amount (#PCDATA)>
"""

#: the five-DTD set every workload classifies against, in install order
DTDS: Dict[str, str] = {
    "figure3": FIGURE3_DTD,
    "catalog": CATALOG_DTD,
    "bibliography": BIBLIOGRAPHY_DTD,
    "newsfeed": NEWSFEED_DTD,
    "auction": AUCTION_DTD,
}

#: the DTDs valid documents are sampled from (Figure 3 gets its own
#: drifting family instead)
SAMPLED = ("catalog", "bibliography", "newsfeed", "auction")

_WORDS = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel")

Tree = list


# ----------------------------------------------------------------------
# Content models and valid sampling
# ----------------------------------------------------------------------


def _parse_model(text: str):
    """``(a, (b | c)*, d?)`` → nested ``("seq"|"choice", parts)``,
    ``("rep", op, part)``, ``("name", tag)`` or ``("text",)`` nodes."""
    tokens = re.findall(r"#PCDATA|[\w.-]+|[(),|?*+]", text)
    position = 0

    def particle():
        nonlocal position
        token = tokens[position]
        position += 1
        if token == "(":
            parts, separator = [particle()], ","
            while tokens[position] in ",|":
                separator = tokens[position]
                position += 1
                parts.append(particle())
            position += 1  # ")"
            node = parts[0] if len(parts) == 1 else (
                "seq" if separator == "," else "choice", parts
            )
        elif token == "#PCDATA":
            node = ("text",)
        else:
            node = ("name", token)
        if position < len(tokens) and tokens[position] in "?*+":
            node = ("rep", tokens[position], node)
            position += 1
        return node

    return particle()


def parse_models(dtd_text: str) -> Tuple[str, Dict[str, tuple]]:
    """The root (first declared element) and every element's model."""
    declarations = re.findall(r"<!ELEMENT\s+([\w.-]+)\s+(.+?)>", dtd_text)
    models = {name: _parse_model(model) for name, model in declarations}
    return declarations[0][0], models


class Sampler:
    """Samples valid documents from one DTD: choices uniform, ``?``
    taken with probability 0.6, ``*``/``+`` repeated geometrically up
    to four times (bounded sizes keep the cost of a stream from
    hinging on a few huge documents)."""

    def __init__(self, dtd_text: str, rng: random.Random):
        self.root, self.models = parse_models(dtd_text)
        self.rng = rng

    def sample(self) -> Tree:
        return self._element(self.root)

    def _element(self, tag: str) -> Tree:
        children: List = []
        self._fill(self.models[tag], children)
        return [tag, children]

    def _fill(self, node, children: List) -> None:
        kind = node[0]
        if kind == "text":
            children.append(self.rng.choice(_WORDS))
        elif kind == "name":
            children.append(self._element(node[1]))
        elif kind == "seq":
            for part in node[1]:
                self._fill(part, children)
        elif kind == "choice":
            self._fill(self.rng.choice(node[1]), children)
        else:
            _, op, part = node
            count = 1 if op == "+" else int(self.rng.random() < 0.6)
            if op != "?" and count:
                while count < 4 and self.rng.random() < 0.45:
                    count += 1
            for _ in range(count):
                self._fill(part, children)


def to_xml(tree: Tree) -> str:
    tag, children = tree
    if not children:
        return f"<{tag}/>"
    inner = "".join(
        child if isinstance(child, str) else to_xml(child) for child in children
    )
    return f"<{tag}>{inner}</{tag}>"


# ----------------------------------------------------------------------
# Drift (Section 2's three divergences) and foreign documents
# ----------------------------------------------------------------------


def _elements(tree: Tree) -> List[Tree]:
    found, stack = [], [tree]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(child for child in node[1] if not isinstance(child, str))
    return found


def add_drift(tree: Tree, rng: random.Random, rate: float, tags) -> Tree:
    """New elements, with tags the DTD does not declare."""
    for element in _elements(tree):
        if rng.random() < rate:
            element[1].append([rng.choice(tags), ["extra"]])
    return tree


def drop_drift(tree: Tree, rng: random.Random, rate: float) -> Tree:
    """Missing elements: remove one element child."""
    for element in _elements(tree):
        subelements = [child for child in element[1] if not isinstance(child, str)]
        if subelements and rng.random() < rate:
            element[1].remove(rng.choice(subelements))
    return tree


def operator_drift(tree: Tree, rng: random.Random, rate: float) -> Tree:
    """Operators not met: swap two children or duplicate one."""
    for element in _elements(tree):
        children = element[1]
        subelements = [child for child in children if not isinstance(child, str)]
        if not subelements or rng.random() >= rate:
            continue
        if len(children) >= 2 and rng.random() < 0.5:
            first, second = rng.sample(range(len(children)), 2)
            children[first], children[second] = children[second], children[first]
        else:
            children.append(_copy(rng.choice(subelements)))
    return tree


def _copy(tree: Tree) -> Tree:
    tag, children = tree
    return [tag, [c if isinstance(c, str) else _copy(c) for c in children]]


def foreign(rng: random.Random, text: bool) -> Tree:
    """A document in a vocabulary no DTD shares (always deposited).
    Text-free ones are outside every drain's index screen."""
    records = []
    for _ in range(rng.randint(2, 5)):
        fields = [
            [f"k{rng.randint(0, 7)}", [rng.choice(_WORDS)] if text else []]
            for _ in range(rng.randint(1, 4))
        ]
        records.append(["rec", fields])
    return ["ledger", records]


def figure3_family(rng: random.Random, tail: str) -> Tree:
    """Figure 3(b)'s family: ``(b, c)`` pairs, then a run of ``tail``."""
    children: List = []
    for _ in range(rng.randint(1, 4)):
        children += [["b", ["x"]], ["c", ["y"]]]
    children += [[tail, ["z"]] for _ in range(rng.randint(1, 3))]
    return ["a", children]


# ----------------------------------------------------------------------
# Workload streams
# ----------------------------------------------------------------------


def _valid(samplers, rng: random.Random) -> Tree:
    return samplers[rng.choice(SAMPLED)].sample()


def _samplers(rng: random.Random):
    return {name: Sampler(DTDS[name], rng) for name in SAMPLED}


def valid_stream(seed: int, count: int) -> List[str]:
    """``count`` valid documents drawn evenly from the sampled DTDs."""
    rng = random.Random(seed)
    samplers = _samplers(rng)
    return [to_xml(_valid(samplers, rng)) for _ in range(count)]


def _drifted(tree: Tree, rng: random.Random, new_tags) -> Tree:
    add_drift(tree, rng, 0.1, new_tags)
    drop_drift(tree, rng, 0.05)
    return operator_drift(tree, rng, 0.05)


def drift_stream(seed: int, count: int) -> List[str]:
    """``count`` documents over six drift eras.  In each era 70%
    of the sampled documents get Add (with that era's own new tags),
    Drop and Operator drift; 15% of all documents are foreign and
    deposited."""
    rng = random.Random(seed)
    samplers = _samplers(rng)
    documents = []
    for index in range(count):
        era = index * 6 // count
        if rng.random() < 0.15:
            documents.append(to_xml(foreign(rng, text=True)))
            continue
        tree = _valid(samplers, rng)
        if rng.random() < 0.7:
            _drifted(tree, rng, (f"era{era}a", f"era{era}b"))
        documents.append(to_xml(tree))
    return documents


def repository_stream(seed: int, count: int) -> List[str]:
    """Text-free foreign documents: a large repository the indexed
    drain can screen without reading a row."""
    rng = random.Random(seed)
    return [to_xml(foreign(rng, text=False)) for _ in range(count)]


def resume_stream(seed: int, count: int) -> List[str]:
    """70% valid, 20% foreign deposits, 10% Figure-3 documents whose
    tail tag changes every phase (each phase forces an evolution and
    an indexed drain)."""
    rng = random.Random(seed)
    samplers = _samplers(rng)
    documents = []
    for index in range(count):
        draw = rng.random()
        if draw < 0.7:
            tree = _valid(samplers, rng)
        elif draw < 0.9:
            tree = foreign(rng, text=False)
        else:
            tree = figure3_family(rng, f"t{index * 3 // count}")
        documents.append(to_xml(tree))
    return documents


def serve_stream(seed: int, count: int) -> List[Tuple[str, str]]:
    """``count`` ``(endpoint, xml)`` requests alternating ``/classify``
    and ``/deposit``.  Classified documents are half valid, half
    drifting auction/catalog documents; deposits are 30% foreign and
    70% Figure-3 documents whose tail tag changes every
    150 deposits (about one evolution each)."""
    rng = random.Random(seed)
    samplers = _samplers(rng)
    requests = []
    for index in range(count):
        if index % 2 == 0:
            if rng.random() < 0.5:
                tree = _valid(samplers, rng)
            else:
                tree = _drifted(
                    samplers[rng.choice(("auction", "catalog"))].sample(),
                    rng, ("shipping", "payment"),
                )
            requests.append(("/classify", to_xml(tree)))
        elif rng.random() < 0.3:
            requests.append(("/deposit", to_xml(foreign(rng, text=False))))
        else:
            tail = f"t{index // 2 // 150}"
            requests.append(("/deposit", to_xml(figure3_family(rng, tail))))
    return requests
