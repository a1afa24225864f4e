"""Response renderers for the faceted-browsing service.

Every route builds its payload here through a *browser* — the duck-typed
query surface shared by :class:`~repro.core.interface.FacetedInterface`
and :class:`~repro.serving.artifact.FacetIndex` — and serializes it with
:func:`canonical_json`.  Because the HTTP layer and the in-memory
interface run the exact same builder over backends that answer
identically, a ``/drilldown`` response body is byte-identical to what
the same query produces against ``FacetedInterface`` (the artifact
round-trip tests assert this).

Payload schema string: ``repro.serving/1``.
"""

from __future__ import annotations

import html
import json

from ..corpus.document import Document

#: Version tag embedded in every JSON payload.
PAYLOAD_SCHEMA = "repro.serving/1"


def canonical_json(payload: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")


def _facet_count_item(fc) -> dict:
    return {"term": fc.term, "count": fc.count, "depth": fc.depth}


def _document_summary(doc: Document) -> dict:
    return {
        "doc_id": doc.doc_id,
        "title": doc.title,
        "source": doc.source,
        "published": doc.published.isoformat(),
    }


# -- payload builders (shared by HTTP service and parity tests) -----------------


def facets_payload(browser) -> dict:
    """``GET /facets`` — the facet roots plus collection stats."""
    return {
        "schema": PAYLOAD_SCHEMA,
        "document_count": browser.document_count,
        "facets": [_facet_count_item(fc) for fc in browser.top_level_counts()],
    }


def children_payload(browser, term: str) -> dict:
    """``GET /facets/{term}/children`` — one node's drill-down view."""
    return {
        "schema": PAYLOAD_SCHEMA,
        "term": term,
        "depth": browser.depth(term),
        "breadcrumb": browser.breadcrumb(term),
        "children": [_facet_count_item(fc) for fc in browser.children(term)],
    }


def drilldown_payload(
    browser,
    *,
    terms: list[str],
    query: str | None,
    limit: int,
) -> dict:
    """``GET /drilldown`` — multi-facet slice/dice, optionally BM25-intersected.

    Facet constraints select the slice (all of ``terms`` must hold); a
    keyword ``query`` ranks within it via BM25.  Without a query the
    matched set is exact: ``total`` counts every matched id and only the
    ``limit`` shown documents are fetched.  With a query, ranking already
    caps the result list at ``limit``.
    """
    if query:
        shown = browser.search_with_facets(query, terms, limit=limit)
        ids = [doc.doc_id for doc in shown]
    else:
        ids = browser.dice_ids(terms)
        shown = browser.documents(ids[:limit])
    return {
        "schema": PAYLOAD_SCHEMA,
        "query": {"terms": terms, "q": query or "", "limit": limit},
        "total": len(ids),
        "documents": [_document_summary(doc) for doc in shown],
        "facet_counts": [
            _facet_count_item(fc) for fc in browser.facet_counts_for(set(ids))
        ],
    }


def document_payload(browser, doc_id: str) -> dict:
    """``GET /documents/{id}`` — one full document."""
    doc = browser.document(doc_id)
    payload = {
        "schema": PAYLOAD_SCHEMA,
        **_document_summary(doc),
        "body": doc.body,
    }
    if doc.gold is not None:
        payload["gold"] = {
            "topic": doc.gold.topic,
            "entity_names": list(doc.gold.entity_names),
            "facet_terms": list(doc.gold.facet_terms),
            "leaked_terms": list(doc.gold.leaked_terms),
        }
    return payload


def error_payload(status: int, message: str) -> dict:
    """The uniform error envelope for every non-2xx JSON response."""
    return {"schema": PAYLOAD_SCHEMA, "error": {"status": status, "message": message}}


# -- HTML renderers (minimal, for browsing without tooling) ---------------------

_PAGE = """<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title>
<style>body{{font-family:sans-serif;max-width:60em;margin:2em auto}}
li{{margin:.2em 0}}</style></head>
<body><h1>{title}</h1>{body}</body></html>"""


def _render_page(title: str, body: str) -> bytes:
    return _PAGE.format(title=html.escape(title), body=body).encode("utf-8")


def _facet_list_html(items: list[dict], link: str) -> str:
    rows = "".join(
        '<li><a href="{href}">{term}</a> ({count})</li>'.format(
            href=link.format(term=html.escape(item["term"], quote=True)),
            term=html.escape(item["term"]),
            count=item["count"],
        )
        for item in items
    )
    return f"<ul>{rows}</ul>" if rows else "<p>none</p>"


def facets_html(payload: dict) -> bytes:
    body = "<p>{n} documents</p>{facets}".format(
        n=payload["document_count"],
        facets=_facet_list_html(payload["facets"], "/facets/{term}/children"),
    )
    return _render_page("Facets", body)


def children_html(payload: dict) -> bytes:
    crumb = " &rsaquo; ".join(html.escape(t) for t in payload["breadcrumb"])
    body = "<p>{crumb}</p>{children}".format(
        crumb=crumb,
        children=_facet_list_html(payload["children"], "/facets/{term}/children"),
    )
    return _render_page(f"Facet: {payload['term']}", body)


def drilldown_html(payload: dict) -> bytes:
    docs = "".join(
        '<li><a href="/documents/{id}">{title}</a> <small>{src}</small></li>'.format(
            id=html.escape(doc["doc_id"], quote=True),
            title=html.escape(doc["title"]),
            src=html.escape(doc["source"]),
        )
        for doc in payload["documents"]
    )
    body = "<p>{total} matching</p><ul>{docs}</ul>".format(
        total=payload["total"], docs=docs
    )
    return _render_page("Drilldown", body)


def document_html(payload: dict) -> bytes:
    body = "<p><small>{src} — {pub}</small></p><p>{text}</p>".format(
        src=html.escape(payload["source"]),
        pub=html.escape(payload["published"]),
        text=html.escape(payload["body"]),
    )
    return _render_page(payload["title"], body)


def error_html(payload: dict) -> bytes:
    err = payload["error"]
    return _render_page(
        f"Error {err['status']}", f"<p>{html.escape(err['message'])}</p>"
    )
